"""`qlocc scan` streams the grid one kernel block at a time: its bytes equal
the whole-grid path's (`conftest.reference_scan_text`) across block
boundaries, its memory does not grow with the grid, and a rejected command
line leaves an existing output file untouched."""

import contextlib
import io
import tracemalloc

import numpy as np
import pytest

from qlocc import cli
from qlocc.classify import BLOCK_SIZE
from qlocc.cli import main
from conftest import reference_scan_text

HALF_PI = "1.5707963267948966"


def _a(alpha, beta, gamma, *extra):
    return ["scan", "--family", "A", "--alpha", alpha, "--beta", beta, "--gamma", gamma, *extra]


def _edges(steps: int) -> str:
    return f"0:{HALF_PI}:{steps}"


# grids of 1, BLOCK_SIZE - 1, BLOCK_SIZE, BLOCK_SIZE + 1 and 3.5 * BLOCK_SIZE
# points whose alpha or beta axis reaches 0 and pi/2, so degenerate region
# cells fall in several blocks; a theta scan of 2 * BLOCK_SIZE + 3 points;
# a column subset out of order; degrees
BLOCK_GRIDS = {
    "one_point": _a("0", "0.4", "0.7"),
    "block_minus_one": _a(_edges(3), _edges(5), _edges(17)),
    "one_block": _a(_edges(4), _edges(8), _edges(8)),
    "block_plus_one": _a("0.3", _edges(BLOCK_SIZE + 1), "0.7"),
    "three_and_a_half_blocks": _a(_edges(7), _edges(8), _edges(16)),
    "theta": ["scan", "--family", "theta", "--theta", _edges(2 * BLOCK_SIZE + 3)],
    "columns": _a(_edges(7), _edges(8), _edges(16), "--columns",
                  "region,gamma,e3_p12,alpha,min_copies_sep,c4,min_pt_13,theta"),
    "degrees": _a("0:90:5", "0:90:9", "10:80:7", "--degrees"),
}


def _stdout(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def test_block_grids_have_the_sizes_they_are_named_for():
    rows = {name: reference_scan_text(argv).count("\n") - 2 for name, argv in BLOCK_GRIDS.items()}
    assert [rows[name] for name in ("one_point", "block_minus_one", "one_block",
                                    "block_plus_one", "theta")] == [
        1, BLOCK_SIZE - 1, BLOCK_SIZE, BLOCK_SIZE + 1, 2 * BLOCK_SIZE + 3]
    assert rows["three_and_a_half_blocks"] == rows["columns"] == 7 * BLOCK_SIZE // 2


@pytest.mark.parametrize("name", sorted(BLOCK_GRIDS))
def test_streamed_scan_bytes_equal_whole_grid_path(name, tmp_path):
    argv = BLOCK_GRIDS[name]
    expected = reference_scan_text(argv)
    assert _stdout(argv) == expected
    target = tmp_path / "scan.csv"
    assert _stdout(argv + ["-o", str(target)]) == ""
    assert target.read_bytes() == expected.encode("utf-8")


# column subsets that read the kernel, or only some of it, or not at all
# (one of them on the theta family, whose family-A columns stay empty)
COLUMN_SUBSETS = {
    "no_kernel": _a(_edges(7), _edges(8), _edges(16), "--columns", "alpha,beta,gamma,region"),
    "kernel_only": _a(_edges(7), _edges(8), _edges(16), "--columns",
                      "min_copies_locc,c3,min_pt_02,entangled_count"),
    "spectra": _a(_edges(7), _edges(8), _edges(16), "--columns", "e4_p12,family,e1_p12,beta"),
    "repeated": _a(_edges(3), _edges(5), _edges(17), "--columns", "c2,gamma,c2,region,gamma"),
    "theta": ["scan", "--family", "theta", "--theta", _edges(2 * BLOCK_SIZE + 3), "--columns",
              "alpha,region,e2_p12,theta,min_copies_sep,c1"],
}


@pytest.mark.parametrize("name", sorted(COLUMN_SUBSETS))
def test_column_subset_bytes_equal_whole_grid_path(name):
    assert _stdout(COLUMN_SUBSETS[name]) == reference_scan_text(COLUMN_SUBSETS[name])


# the theta family is a one-axis grid: one point, degrees, and columns without theta
THETA_GRIDS = {
    "one_point": ["scan", "--family", "theta", "--theta", "0.4"],
    "degrees": ["scan", "--family", "theta", "--theta", f"0:90:{BLOCK_SIZE + 5}", "--degrees"],
    "no_theta_column": ["scan", "--family", "theta", "--theta", _edges(BLOCK_SIZE + 1),
                        "--columns", "min_copies_locc,c2,family,entangled_count,gamma"],
}


@pytest.mark.parametrize("name", sorted(THETA_GRIDS))
def test_theta_scan_bytes_equal_whole_grid_path(name):
    assert _stdout(THETA_GRIDS[name]) == reference_scan_text(THETA_GRIDS[name])


def test_scan_without_kernel_columns_never_runs_the_kernel(monkeypatch):
    def refuse(kets):
        raise AssertionError("decide called")

    monkeypatch.setattr(cli, "decide", refuse)
    argv = COLUMN_SUBSETS["no_kernel"]
    assert _stdout(argv) == reference_scan_text(argv)
    with pytest.raises(AssertionError, match="decide called"):
        _stdout(COLUMN_SUBSETS["kernel_only"])


def _traced_peak(argv) -> int:
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_scan_memory_stays_flat_in_grid_size(tmp_path):
    # numpy reports its buffers to tracemalloc; a whole-grid scan's peak grows
    # by about 1.6 kB a point, so this 8x larger grid would add about 3.8 MB
    def argv(steps):
        axis = f"0.05:1.5:{steps}"
        return _a(axis, axis, axis, "-o", str(tmp_path / "scan.csv"))

    main(argv(2))  # caches and lazy imports land outside the measurement
    small, large = _traced_peak(argv(7)), _traced_peak(argv(14))
    assert large - small < 2**20, (small, large)


@pytest.mark.parametrize("bad", [
    ["--theta", "0:1.5:1"],
    ["--theta", "0:3.2:10"],
    ["--theta", "0:1.5:4", "--columns", "theta,nope"],
    ["--theta", "1.5:0:4"],
])
def test_rejected_scan_leaves_output_file_untouched(bad, tmp_path, capsys):
    target = tmp_path / "scan.csv"
    target.write_bytes(b"previous contents\n")
    assert main(["scan", "--family", "theta", *bad, "-o", str(target)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")
    assert target.read_bytes() == b"previous contents\n"


# float columns as the kernel hands them over: signed zeros that must not
# share a label, long runs, no runs, and a strided column of a 2-D array
RUN_COLUMNS = {
    "signed_zeros": np.array([0.0, -0.0, 0.0, -0.0, -0.0, 0.0]),
    "long_runs": np.repeat([0.125, 1e-17, -2.5e-10, 0.125, 1.0], [300, 1, 77, 2, 40]),
    "no_runs": np.linspace(-1.0, 1.0, BLOCK_SIZE),
    "one_value": np.array([0.7071067811865476]),
    "strided": np.repeat(np.arange(12.0).reshape(4, 3), 5, axis=0)[:, 1],
}


@pytest.mark.parametrize("name", sorted(RUN_COLUMNS))
def test_run_labels_equal_per_value_labels(name):
    column = RUN_COLUMNS[name]
    assert cli._run_labels(column) == list(map(cli._fmt, column.tolist()))


def _formats(monkeypatch) -> list:
    """Every value `cli._fmt` formats, recorded as it is called."""
    values, fmt = [], cli._fmt

    def recording(x):
        values.append(x)
        return fmt(x)

    monkeypatch.setattr(cli, "_fmt", recording)
    return values


def test_scan_formats_each_run_of_equal_kernel_values_once(monkeypatch):
    # c1 runs over beta x gamma (40 x 9 = 360 points) and c2 and min_pt_01
    # over gamma (9 points), so runs cross the block seams at 256 and 512
    argv = _a(_edges(4), "0.3:1.2:40", "0.1:1.4:9", "--columns", "c1,c2,min_pt_01,c3")
    formatted = _formats(monkeypatch)
    assert _stdout(argv) == reference_scan_text(argv)
    points = 4 * 40 * 9
    seams = points // BLOCK_SIZE
    # c3 moves with gamma and is formatted per point; c1 once per alpha and
    # c2 and min_pt_01 once per (alpha, beta), each once more per block seam
    assert len(formatted) <= points + (4 + seams) + 2 * (4 * 40 + seams)
