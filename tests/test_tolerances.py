"""The verdict thresholds: one table, in the README and the package docstring."""

import importlib
import inspect
from pathlib import Path

import pytest

import thermops
from thermops import (
    EnergySpectrum,
    ThermoCurve,
    WorkDistribution,
    check_eti,
    theorem4_check,
    thermo_majorizes,
    validate,
)

README = Path(__file__).resolve().parents[1] / "README.md"


def _rows(text: str) -> list[list[str]]:
    """The table's rows, one list of cells each, from the lines that start with "| `"."""
    return [
        [cell.strip() for cell in line.strip().strip("|").split("|")]
        for line in text.splitlines()
        if line.strip().startswith("| `")
    ]


TABLE = _rows(thermops.__doc__)


def test_readme_holds_the_package_table():
    assert _rows(README.read_text(encoding="utf-8")) == TABLE


@pytest.mark.parametrize("row", TABLE, ids=[row[0] for row in TABLE])
def test_constant_has_the_listed_value(row):
    name, module, value = row[0].strip("`"), row[1], row[2]
    assert getattr(importlib.import_module(f"thermops.{module}"), name) == float(value)


def test_every_tolerance_constant_is_listed():
    listed = {(row[1], row[0].strip("`")) for row in TABLE}
    modules = ("spectra", "channels", "batteries", "construction", "bounds", "feasibility", "erasure")
    for module in modules:
        for name in vars(importlib.import_module(f"thermops.{module}")):
            if name.endswith("_TOL") and name.isupper():
                assert (module, name) in listed, f"{module}.{name} is not in the table"


@pytest.mark.parametrize(
    "fn",
    [
        validate,
        check_eti,
        theorem4_check,
        thermo_majorizes,
        ThermoCurve.lies_above,
        WorkDistribution.prob_of,
        EnergySpectrum.uniform_spacing,
    ],
)
def test_verdict_takes_no_tolerance(fn):
    assert not [p for p in inspect.signature(fn).parameters if "tol" in p]
