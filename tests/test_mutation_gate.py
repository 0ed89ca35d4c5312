"""The mutation gate of the proof (ROADMAP item 12): each mutant of the proof content is applied
in process by monkeypatching a table or a record's bracket, and `verify` must then end
non-certified (exit 1).

A survivor still lets `verify all` end certified: it is a strict xfail that names the roadmap
item meant to kill it, so the change that kills it must flip the entry into a passing pin.  A
killed mutant runs only the suite that kills it, which `verify all` includes.  The engine gets
planted counterexamples: quantities with a negative dip that `certify_sign` must not certify.
"""

import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from thetacert import Enclosure, EvalConfig, envelopes, modular, theta, verifier
from thetacert.certify import Status, certify_sign
from thetacert.cli import main as cli_main
from thetacert.exppoly import ExpPoly
from thetacert.verifier import _Bracket

from conftest import n2_mutant


def _bracket(name, poly):
    """verifier.<name> with its polynomial replaced, name, variable and sign kept."""
    old = getattr(verifier, name)
    return name, _Bracket(old.name, old.var, old.sign, poly)


def _move_corners(monkeypatch):
    """Move the even f'' corner and both f' corners from 2 to 4: the brackets still hold past
    4, and nothing ties a corner to y >= 2/pi."""
    inner = verifier._certify_bracket
    moved = (verifier._EVEN_CONVEX, verifier._EVEN_DECREASING, verifier._ODD_DECREASING)

    def certify(bracket, corner, cfg, *premises):
        return inner(bracket, 4 if bracket in moved and corner == 2 else corner, cfg, *premises)

    monkeypatch.setattr(verifier, "_certify_bracket", certify)


def _table_entry(nu, j, value):
    """MODULAR_COEFFICIENTS with entry j of row nu replaced."""
    row = modular.MODULAR_COEFFICIENTS[nu]
    return modular.MODULAR_COEFFICIENTS, nu, row[:j] + (value,) + row[j + 1:]


def _h_term(i, coeff=None, power=None):
    """verifier._H_TERMS with term i's coefficient or power of y replaced."""
    terms = verifier._H_TERMS
    c, p, factors = terms[i]
    term = (c if coeff is None else coeff, p if power is None else power, factors)
    return "_H_TERMS", terms[:i] + (term,) + terms[i + 1:]


def _n2(**mutation):
    """Replace N_2 in theta._numerators, the psi numerators that the Lambert sum evaluates and
    the g-chain anchor reads."""
    return lambda monkeypatch: monkeypatch.setattr(theta, "_numerators", n2_mutant(**mutation))


def _theta2(**change):
    """Replace theta._THETA2, the one statement of theta2's terms, with `change` applied: theta2,
    its envelopes and their admissibility all read it."""
    return lambda monkeypatch: monkeypatch.setattr(
        theta, "_THETA2", SimpleNamespace(**{**vars(theta._THETA2), **change}))


def _envelopes(amplitude=Fraction(1, 4), inflated=9):
    """Replace `_envelope_poly`, which the sandwich and the envelope-product bracket read, by a
    transcription with the amplitude 2 (pi amplitude)^nu and the inflation (1 + c) on the term
    of e^{-pi a y/4} with a = `inflated`; the defaults transcribe it unchanged."""
    def poly(nu, inflation=0):
        pi = Enclosure.pi()
        amp = 2 * (pi * Enclosure(amplitude)) ** nu
        return ExpPoly({-a: (amp * a ** nu * (1 + Enclosure(inflation) if a == inflated else 1),)
                        for a in (1, 9)}, pi / 4)

    def mutant(monkeypatch):
        for module in (envelopes, verifier):
            monkeypatch.setattr(module, "_envelope_poly", poly)
    return mutant


def _survivor(item, what):
    return pytest.mark.xfail(strict=True, reason=f"ROADMAP item {item}: {what} survives")


_MUTANTS = [
    pytest.param("all", _bracket("_EVEN_CONVEX", ExpPoly({0: (-1, 1), -2: (2, 1)})),
                 marks=_survivor(1, "t - 1 + e^(-2t)(t + 2) as the even f'' bracket"),
                 id="even-convex-bracket"),
    pytest.param("all", _bracket("_ODD_CONVEX", ExpPoly({0: (-3, 1)})),
                 marks=_survivor(1, "s - 3 as the odd f'' bracket"), id="odd-convex-bracket"),
    pytest.param("all", _bracket("_EVEN_DECREASING", ExpPoly({0: (2, -1), -2: (-1,)})),
                 marks=_survivor(1, "2 - t - e^(-2t) as the even f' bracket"),
                 id="even-decreasing-bracket"),
    pytest.param("all", _bracket("_ODD_DECREASING", ExpPoly({0: (1, -1), -1: (-2,)})),
                 marks=_survivor(1, "1 - s - 2e^(-s) as the odd f' bracket"),
                 id="odd-decreasing-bracket"),
    pytest.param("all", _move_corners,
                 marks=_survivor(3, "the even f'' and both f' corners moved from 2 to 4"),
                 id="corners-2-to-4"),
    # the sandwich decides y > 1 from theta2's own terms: its direct comparison at y = 1 must
    # catch a wrong amplitude, and its check of F's premise the inflation on the wrong term
    pytest.param("envelopes", _envelopes(amplitude=4), id="envelope-amplitude-4-to-the-nu"),
    pytest.param("envelopes", _envelopes(inflated=1), id="envelope-inflation-on-first-term"),
    pytest.param("modular", (modular.MODULAR_COEFFICIENTS, 2, (Fraction(3, 4), 4, 1)),
                 id="modular-table-row-2"),
    pytest.param("modular", _table_entry(3, 3, Fraction(-2)), id="modular-table-row-3-last"),
    pytest.param("modular", _theta2(weight=3), id="theta2-weight-3"),
    # a weight that is not a power of two is refused by the series; this one must fail the proof
    pytest.param("modular", _theta2(weight=4), id="theta2-weight-4"),
    *(pytest.param("modular", _table_entry(nu, 0, modular.MODULAR_COEFFICIENTS[nu][0] * f),
                   id=f"modular-table-row-{nu}-first-times-{f}")
      for nu in (1, 2, 3) for f in (Fraction(1, 2), 2)),
    *(pytest.param("greek", _h_term(i, coeff + d), id=f"h-term-{i}-coefficient{d:+}")
      for i, (coeff, _, _) in enumerate(verifier._H_TERMS) for d in (-1, 1)),
    pytest.param("greek", _h_term(4, power=0), id="h-term-4-power-of-y-0"),
    pytest.param("greek", ("_SLOTS", {**verifier._SLOTS, "epsilon": (-27, 1, +1)}),
                 id="epsilon-slot-sign"),
    pytest.param("small-y", (verifier._ROUNDED, "zeta", Fraction(1, 25)), id="rounded-zeta"),
    pytest.param("g-chain", _bracket("_G_BRACKET", ExpPoly({0: (-6, -8, 5), -1: (6, 8, 1)})),
                 id="g-bracket-x-squared"),
    pytest.param("g-chain", _n2(sv_shift=1), id="psi-n2-minus-2sv"),
    pytest.param("g-chain", _n2(u_coefficient=2), id="psi-n2-one-plus-2u"),
]


@pytest.mark.parametrize("suite, mutant", _MUTANTS)
def test_a_mutant_of_the_proof_ends_non_certified(monkeypatch, capsys, suite, mutant):
    if callable(mutant):
        mutant(monkeypatch)
    elif isinstance(mutant[0], str):
        monkeypatch.setattr(verifier, *mutant)
    else:
        monkeypatch.setitem(*mutant)
    assert cli_main(["verify", suite]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("suite", ["envelopes", "greek"])
def test_the_unmutated_envelope_transcription_certifies(monkeypatch, capsys, suite):
    # the envelope mutants above differ from `_envelope_poly` only by their mutation
    _envelopes()(monkeypatch)
    assert cli_main(["verify", suite]) == 0
    capsys.readouterr()


def _dip(c):
    """(y - c)^2 - (5e-13)^2: positive on every box but those within 5e-13 of c."""
    def q(box, cfg):
        with cfg.scope():
            return (box - c) ** 2 - Enclosure("5e-13") ** 2
    return q


@pytest.mark.parametrize("c", [random.Random(12).uniform(0.05, 20), 1, "0.05", 20],
                         ids=["interior", "at-the-cut", "at-the-lower-end", "at-the-upper-end"])
def test_a_planted_dip_is_never_certified(c):
    report = certify_sign(_dip(Enclosure(c)), ("0.05", 20), +1, EvalConfig(), cuts=(1,))
    assert report.status is not Status.CERTIFIED, report.boxes_examined
