"""The report tools under tools/: their output on small hand-built trees."""

import importlib.util
from pathlib import Path

import pytest


def _tool(name):
    path = Path(__file__).resolve().parents[1] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def trees(tmp_path):
    """Two output trees ``a`` and ``b``, and a writer of one CSV under each."""
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()

    def write(name, text_a, text_b):
        (a / name).write_text(text_a)
        (b / name).write_text(text_b)

    return a, b, write


class TestTableDiff:
    WIDE = ("k_x,state_index,re_E,im_E,abs_E,mean_row,ipr,class\n"
            "0.5,0,3,4,5,1,0.5,edge_bottom\n0.5,1,1,0,1,2,0.5,extended\n")
    SWEEP = "k_x,state_index,re_E,im_E,mean_row,ipr,class\n0.5,0,3,4,1,0.5,edge_bottom\n0.5,1,1,0,2,0.5,extended\n"

    def test_a_dropped_column_is_named_and_the_shared_cells_compared(self, trees):
        a, b, write = trees
        write("s_sweep.csv", self.WIDE, self.SWEEP)
        assert _tool("table_diff").table_diff(a, b) == [
            f"s_sweep.csv: columns only in {a}: abs_E",
            "s_sweep.csv: 0 of 2 rows differ in the shared columns",
        ]

    def test_shared_columns_report_energies_and_moved_labels(self, trees):
        a, b, write = trees
        write("s_sweep.csv", self.WIDE, self.SWEEP.replace("3,4,1,0.5,edge_bottom", "3,4.5,1,0.5,extended"))
        assert _tool("table_diff").table_diff(a, b) == [
            f"s_sweep.csv: columns only in {a}: abs_E",
            "s_sweep.csv: 1 of 2 rows differ in the shared columns, max |dE| 0.5",
            "  label k_x=0.5 state_index=0 |E|=5: edge_bottom -> extended",
        ]

    def test_other_differences(self, trees):
        a, b, write = trees
        write("same.csv", self.SWEEP, self.SWEEP)
        write("moved.csv", self.SWEEP, self.SWEEP.replace("1,0,2", "1,0.25,2"))
        write("longer.csv", self.SWEEP, self.SWEEP + "0.5,2,0,1,3,0.5,extended\n")
        write("wider.csv", "k_x,re_E\n1,2\n", "k_x,re_E,weight\n1,2,0.5\n")
        (b / "new.csv").write_text(self.SWEEP)
        assert _tool("table_diff").table_diff(a, b) == [
            "longer.csv: row count differs (2 against 3 rows)",
            "moved.csv: 1 of 2 rows differ, max |dE| 0.25",
            f"new.csv: only in {b}",
            f"wider.csv: columns only in {b}: weight",
            "wider.csv: 0 of 1 rows differ in the shared columns",
        ]
