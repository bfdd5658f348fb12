"""CLI reports compared byte for byte with reports recorded in tests/golden/.

Every field but ``wall_clock_s`` is deterministic for a fixed seed, so a
change to the structural machinery that keeps the results must keep
these bytes.
"""

import contextlib
import io
import pathlib
import re

import pytest

from nilcarnot.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"

# delta_2 on ladder5 written as a matrix, and a rational translation
DELTA_2 = "2,0,0,0,0,0;0,2,0,0,0,0;0,0,2,0,0,0;0,0,0,4,0,0;0,0,0,0,4,0;0,0,0,0,0,8"
TRANSLATION = "1/2,-1,1/4,0,1,0"

CASES = {
    **{
        f"classify_{name}": ["classify", "--fixture", name]
        for name in ("heisenberg3", "engel4", "engel_heis7", "heisprod4", "ladder5", "free2_4")
    },
    "shear_ladder5_verify": [
        "shear", "--fixture", "ladder5", "--component", "1=sign(q1)*sqrt(abs(q1))",
        "--verify", "--samples", "200",
    ],
    "maps_conjugate_ladder5": [
        "maps", "conjugate", "--fixture", "ladder5", "--map", "dilate:1/2",
        "--map", "shear:1=37/100*q1", "--solve-layer", "1",
    ],
    "maps_compatible_ladder5": [
        "maps", "compatible", "--fixture", "ladder5", "--map", "dilate:3",
        "--map", "shear:1=q1*q1",
    ],
    "maps_dalpha_heisprod4": [
        "maps", "dalpha", "--fixture", "heisprod4", "--map", "shear:2=0.5*q1",
        "--point", "0.3,-1,0.7,0.2",
    ],
    "maps_chain_heisprod4": [
        "maps", "chain", "--fixture", "heisprod4", "--map", "shear:2=0.2*q1*q1",
        "--map2", "shear:2=0.3*q1", "--point", "0.5,0.1,0,0",
    ],
    # translation and graded-automorphism factors on float points
    "maps_compatible_ladder5_translate_auto": [
        "maps", "compatible", "--fixture", "ladder5", "--map", f"translate:{TRANSLATION}",
        "--map", f"auto:{DELTA_2}", "--map", "shear:1=q1*q1",
    ],
    "maps_cocycle_ladder5": [
        "maps", "cocycle", "--fixture", "ladder5", "--map", f"translate:{TRANSLATION}",
        "--map", "dilate:1/2", "--map2", f"auto:{DELTA_2}", "--map2", "shear:1=sin(q1)",
    ],
    "maps_automorphism_ladder5": [
        "maps", "automorphism", "--fixture", "ladder5", "--map", f"translate:{TRANSLATION}",
        "--map", f"auto:{DELTA_2}",
    ],
}


def report_bytes(argv):
    """The printed report with the wall-clock field dropped, and the exit code."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv + ["--seed", "42"])
    return re.sub(r', "wall_clock_s": [^,}]+', "", out.getvalue()), code


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_report_matches_golden(name):
    text, code = report_bytes(CASES[name])
    assert code == 0
    assert text == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "name, count",
    [
        ("maps_conjugate_ladder5", 3),
        ("maps_chain_heisprod4", 3),
        ("maps_dalpha_heisprod4", 1),
        ("maps_cocycle_ladder5", 3),
    ],
)
def test_golden_maps_command_normal_orders_each_chain_once(monkeypatch, name, count):
    """conjugate: gamma, its below-exponent chain and the conjugated chain;
    chain: the two maps and their composite; cocycle: gamma1 (shear-free),
    the below-exponent gamma2 and the below-exponent composite."""
    import nilcarnot.cli
    import nilcarnot.maps

    calls, original = [], nilcarnot.maps.extract_compatible
    for module in (nilcarnot.maps, nilcarnot.cli):
        monkeypatch.setattr(module, "extract_compatible", lambda *a: calls.append(a) or original(*a))
    report_bytes(CASES[name])
    assert len(calls) == count
