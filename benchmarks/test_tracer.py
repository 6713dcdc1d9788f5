"""Tracer self-test: exact span counts prove every alias is patched.

    python3 -m pytest benchmarks -q
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import compulse  # noqa: E402
from compulse import analysis, cli, error_models, precision, sequences, su2  # noqa: E402
from mpmath import mpf  # noqa: E402

from tracer import FUNCTIONS, METHODS, Tracer  # noqa: E402


@pytest.fixture(autouse=True)
def _sixty_digits():
    with precision.working_digits(60):
        yield


def _traced_evaluate(evaluate_name: str, owner, seq, model) -> dict:
    tr = Tracer()
    with tr.installed():
        getattr(owner, evaluate_name)(seq, model, mpf("0.01"))
    summary = tr.summary()
    return {name: summary.get(name, {}).get("calls", 0) for name in
            ("sequences.evaluate", "error_models.realize", "su2.multiply")}


@pytest.mark.parametrize("owner", [sequences, analysis, cli, compulse], ids=lambda m: m.__name__)
def test_b4_linear_counts_through_every_alias(owner):
    seq = sequences.build_builtin("b4")
    counts = _traced_evaluate("evaluate", owner, seq, error_models.LinearOverRotation(1))
    assert counts == {"sequences.evaluate": 1, "error_models.realize": 28, "su2.multiply": 28}


def test_depth5_chain_counts():
    seq = sequences.build_builtin("concat:XYYXY")
    counts = _traced_evaluate("evaluate", analysis, seq, error_models.LinearOverRotation(1))
    assert counts == {"sequences.evaluate": 1, "error_models.realize": 727, "su2.multiply": 727}


def test_per_channel_realize_is_traced():
    seq = sequences.build_builtin("pi3:Y")
    model = error_models.PerChannel({"target": error_models.LinearOverRotation(1)})
    tr = Tracer()
    with tr.installed():
        sequences.evaluate(seq, model, mpf("0.01"))
    # 7 PerChannel.realize calls, 3 of which reach the target model's realize
    assert tr.summary()["error_models.realize"]["calls"] == 10
    assert tr.under_evaluate("error_models.realize")[0] == 7


def test_install_patches_aliases_and_uninstall_restores():
    originals = {
        "sequences": sequences.evaluate,
        "analysis": analysis.evaluate,
        "cli": cli.evaluate,
        "su2_tolerance": su2.unit_tolerance,
        "realize": error_models.ErrorModel.__dict__["realize"],
    }
    tr = Tracer()
    with tr.installed():
        assert sequences.evaluate is analysis.evaluate is cli.evaluate is compulse.evaluate
        assert sequences.evaluate.__wrapped__ is originals["sequences"]
        assert su2.unit_tolerance is precision.unit_tolerance is error_models.unit_tolerance
        assert su2.unit_tolerance.__wrapped__ is originals["su2_tolerance"]
        assert error_models.ErrorModel.__dict__["realize"] is not originals["realize"]
    assert sequences.evaluate is analysis.evaluate is cli.evaluate is originals["sequences"]
    assert su2.unit_tolerance is originals["su2_tolerance"]
    assert error_models.ErrorModel.__dict__["realize"] is originals["realize"]


def test_every_target_exists():
    for targets in FUNCTIONS.values():
        for mod, attr in targets:
            assert callable(getattr(getattr(compulse, mod), attr))
    for targets in METHODS.values():
        for mod, cls, attr in targets:
            assert attr in getattr(getattr(compulse, mod), cls).__dict__


def test_self_time_is_span_time_minus_children():
    seq = sequences.build_builtin("b2")
    tr = Tracer()
    with tr.installed():
        analysis.component_scan(seq, error_models.LinearOverRotation(1), (mpf("0.01"),))
    for i in range(len(tr.start)):
        assert tr.child[i] <= tr.end[i] - tr.start[i]
    summary = tr.summary()
    total_self = sum(v["self_s"] for v in summary.values())
    scan = summary["analysis.scan"]
    assert scan["calls"] == 1
    assert total_self == pytest.approx(scan["incl_s"], rel=1e-9)
