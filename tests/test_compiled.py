"""Compiled traversal engine: build cache, fallback and memory safety.

Answer equivalence with the NumPy engines lives in ``test_wavefront.py``
(its harness loops over every engine); this file covers what only the
compiled engine has — a library built on first use and cached on disk,
a fallback to ``wavefront`` when it cannot be built, and a C loop that
must reject a bad stack or tree instead of touching memory it does not
own.
"""

import copy
import logging
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.bvh import batched_knn, batched_nearest, build_bvh
from repro.bvh import compiled
from repro.bvh.traversal import get_default_engine
from repro.core.emst import emst
from repro.errors import ReproError
from repro.service.jobs import canonical_payload_bytes, emst_result_to_dict

SRC = Path(__file__).resolve().parent.parent / "src"

needs_compiler = pytest.mark.skipif(
    compiled._find_compiler() is None, reason="no C compiler on PATH")


@pytest.fixture
def fresh_cache(monkeypatch, tmp_path):
    """An empty library cache and no library loaded yet in this process."""
    monkeypatch.setattr(compiled, "_cache_dir", lambda: tmp_path)
    monkeypatch.setattr(compiled, "_lib", None)
    return tmp_path


def _canonical(pts):
    return canonical_payload_bytes(emst_result_to_dict(emst(pts)))


class TestFallback:
    def test_no_compiler_falls_back_to_wavefront(self, fresh_cache,
                                                 monkeypatch, caplog):
        pts = np.random.default_rng(0).random((300, 2))
        with caplog.at_level(logging.WARNING, logger=compiled.__name__):
            monkeypatch.setattr(compiled, "_lib", False)
            want = _canonical(pts)  # the wavefront answer
            monkeypatch.setattr(compiled, "_lib", None)
            monkeypatch.setattr(compiled, "_find_compiler", lambda: None)
            assert get_default_engine() == "wavefront"
            got = [_canonical(pts) for _ in range(2)]
            knn = batched_knn(build_bvh(pts), pts, 3, engine="compiled")
        assert got == [want, want]
        assert knn.distance_sq.shape == (300, 3)
        warnings = [r for r in caplog.records
                    if r.levelno == logging.WARNING]
        assert len(warnings) == 1
        assert "wavefront" in warnings[0].getMessage()
        assert list(fresh_cache.iterdir()) == []

    @needs_compiler
    def test_truncated_cached_library_is_rebuilt(self, fresh_cache):
        path = compiled.library_path()
        path.write_bytes(b"\x7fELF" + b"\0" * 60)  # a torn write
        assert compiled.available()
        assert path.stat().st_size > 64
        bvh = build_bvh(np.random.default_rng(1).random((50, 3)))
        got = batched_nearest(bvh, bvh.points, engine="compiled",
                              exclude_position=np.arange(50))
        want = batched_nearest(bvh, bvh.points, engine="reference",
                               exclude_position=np.arange(50))
        assert np.array_equal(got.distance_sq, want.distance_sq)

    @needs_compiler
    def test_concurrent_builds_both_load(self, tmp_path):
        script = textwrap.dedent("""
            import sys
            from pathlib import Path
            import numpy as np
            from repro.bvh import batched_knn, build_bvh, compiled
            compiled._cache_dir = lambda: Path(sys.argv[1])
            assert compiled.available()
            bvh = build_bvh(np.random.default_rng(2).random((200, 2)))
            knn = batched_knn(bvh, bvh.points, 4, engine="compiled")
            print(float(knn.distance_sq.sum()).hex())
        """)
        env = {"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin",
               "HOME": str(tmp_path)}
        procs = [subprocess.Popen([sys.executable, "-c", script,
                                   str(tmp_path / "cache")],
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, env=env,
                                  text=True)
                 for _ in range(2)]
        outs = [p.communicate(timeout=120) for p in procs]
        for proc, (out, err) in zip(procs, outs):
            assert proc.returncode == 0, err
        assert outs[0][0] == outs[1][0] != ""
        files = sorted(f.name for f in (tmp_path / "cache").iterdir())
        assert files == [compiled.library_path().name]


@pytest.mark.skipif(not compiled.available(),
                    reason="no C compiler for the compiled engine")
class TestSafety:
    def test_stack_overflow_is_an_error(self):
        bvh = copy.copy(build_bvh(np.random.default_rng(6).random((256, 2))))
        assert bvh.height > 6
        bvh.schedule = bvh.schedule[:1]  # lies about the depth
        with pytest.raises(ReproError, match="stack overflow"):
            batched_nearest(bvh, bvh.points, engine="compiled")
        with pytest.raises(ReproError, match="stack overflow"):
            batched_knn(bvh, bvh.points, 2, engine="compiled")

    def test_bad_child_index_is_an_error(self):
        bvh = copy.copy(build_bvh(np.random.default_rng(3).random((20, 2))))
        bvh.left = bvh.left.copy()
        bvh.left[0] = 10 ** 9
        with pytest.raises(ReproError, match="malformed tree"):
            batched_nearest(bvh, bvh.points, engine="compiled")

    def test_cyclic_tree_is_an_error(self):
        bvh = copy.copy(build_bvh(np.random.default_rng(4).random((20, 2))))
        bvh.left = bvh.left.copy()
        bvh.right = bvh.right.copy()
        # Root -> node 1 -> node 1 ...: the stack never grows, so only the
        # pop budget (each internal node once per lane) can stop it.
        bvh.left[0] = bvh.left[1] = 1
        bvh.right[1] = bvh.leaf_base
        inside = (bvh.lo[1] + bvh.hi[1])[None, :] / 2
        with pytest.raises(ReproError, match="malformed tree"):
            batched_knn(bvh, inside, 1, engine="compiled")
        with pytest.raises(ReproError, match="malformed tree"):
            batched_nearest(bvh, inside, engine="compiled")

    def test_concurrent_threads_match_serial(self):
        rng = np.random.default_rng(5)
        bvh = build_bvh(rng.random((2000, 3)))
        ids = bvh.order
        want = batched_nearest(bvh, bvh.points, engine="compiled",
                               query_ids=ids, point_ids=ids,
                               exclude_position=np.arange(bvh.n))
        results = []

        def work():
            for _ in range(5):
                results.append(batched_nearest(
                    bvh, bvh.points, engine="compiled", query_ids=ids,
                    point_ids=ids, exclude_position=np.arange(bvh.n)))

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        assert len(results) == 20
        for got in results:
            assert np.array_equal(got.position, want.position)
            assert np.array_equal(got.key, want.key)
