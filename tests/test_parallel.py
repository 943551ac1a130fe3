"""The parallel layer: item order, and BLAS on one thread while the pool runs.

The BLAS pool size is process-wide, so the real pin is checked in a fresh
interpreter whose pool the environment sets to two threads, as is the
moment lab's bit contract across thread counts and BLAS pools.
"""
import json
import subprocess
import sys
import textwrap
from pathlib import Path
from unittest import mock

import pytest

from conftest import pool_env
from gnmodel import parallel
from gnmodel.parallel import ordered_map

DEMO = Path(__file__).resolve().parent.parent / "demos" / "single_span.yaml"

# the pool size a task reads inside ordered_map at two threads, and the size
# before, after the map returns and after a task raises; null when no
# OpenBLAS thread setter is found
PIN_SCRIPT = textwrap.dedent("""
    import json
    from gnmodel import parallel
    blas = parallel._blas_threads()
    if blas is None:
        print("null")
        raise SystemExit
    get = blas[0]

    def fail(item):
        if item == 2:
            raise RuntimeError("task 2")
        return get()

    before = get()
    inside = parallel.ordered_map(lambda item: get(), range(4), threads=2)
    after_map = get()
    try:
        parallel.ordered_map(fail, range(4), threads=2)
    except RuntimeError:
        after_raise = get()
    print(json.dumps({"before": before, "inside": inside,
                      "after_map": after_map, "after_raise": after_raise}))
""")


# moments --theorem 2 --k 3 and --theorem 3 on the configuration argv[1] at
# --threads argv[3], written to argv[2] + ".2.csv" and ".3.csv"
MOMENTS_SCRIPT = textwrap.dedent("""
    import sys
    from gnmodel.cli import run
    config, out, threads = sys.argv[1:]
    for theorem in (["2", "--k", "3"], ["3"]):
        assert run(["--config", config, "--output",
                    f"{out}.{theorem[0]}.csv", "--threads", threads,
                    "moments", "--theorem", *theorem, "--trials", "2000"]) == 0
""")


class TestOrderedMap:
    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_results_come_back_in_item_order(self, threads):
        assert ordered_map(lambda x: x * x, range(9), threads) == \
            [x * x for x in range(9)]

    def test_serial_call_never_looks_up_blas(self):
        with mock.patch.object(parallel, "_blas_threads") as lookup:
            assert ordered_map(str, range(3), 1) == ["0", "1", "2"]
        lookup.assert_not_called()

    def test_pool_is_pinned_and_restored_around_the_workers(self):
        calls = []
        blas = (lambda: 7, calls.append)
        with mock.patch.object(parallel, "_blas_threads", return_value=blas):
            seen = ordered_map(lambda x: list(calls), range(3), 2)
            assert seen == [[1]] * 3 and calls == [1, 7]
            with pytest.raises(KeyError):
                ordered_map({}.__getitem__, range(3), 2)
        assert calls == [1, 7, 1, 7]

    def test_no_setter_found_maps_as_before(self):
        with mock.patch.object(parallel, "_blas_threads", return_value=None):
            assert ordered_map(abs, [-2, 3, -4], 2) == [2, 3, 4]


def test_openblas_pool_reads_one_inside_the_map_and_is_restored():
    done = subprocess.run([sys.executable, "-c", PIN_SCRIPT], env=pool_env(2),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    sizes = json.loads(done.stdout)
    if sizes is None:
        pytest.skip("no OpenBLAS thread setter found next to NumPy")
    if sizes["before"] != 2:
        pytest.skip(f"OPENBLAS_NUM_THREADS=2 gave a pool of {sizes['before']}")
    assert sizes["inside"] == [1, 1, 1, 1]
    assert sizes["after_map"] == 2
    assert sizes["after_raise"] == 2


def test_moments_bits_do_not_depend_on_threads_or_blas_pool(tmp_path):
    # (--threads, BLAS pool): a serial run on a pool of 2 splits theorem 2's
    # sampling GEMMs between BLAS threads; the pool runs pin BLAS to one
    outputs = {}
    for threads, blas in ((1, 1), (1, 2), (2, 2), (4, 2)):
        out = tmp_path / f"t{threads}-blas{blas}"
        subprocess.run([sys.executable, "-c", MOMENTS_SCRIPT, str(DEMO),
                        str(out), str(threads)],
                       env=pool_env(blas), check=True, timeout=120)
        outputs[threads, blas] = [out.with_suffix(f".{theorem}.csv")
                                  .read_bytes() for theorem in (2, 3)]
    assert all(files == outputs[1, 1] for files in outputs.values())
