"""The constant ledger: the numeric regime a verification run operates in.

Two profiles exist.  The *faithful* profile reproduces the published
formulas bit-exactly over rationals: the dominating constant is 10^4 times
the largest measured input and the distinguished segment length is
10^7 * dominating^5 / axis_step.  Those magnitudes are astronomically out
of reach for exact desk-scale enumeration, so verification runs use a
*scaled* profile, keeping the formula shapes (coefficient and exponent are
ledger fields) with user-set entries.  Every report names its profile, and
the structural inequalities the concatenation arguments rely on are
re-checked and recorded rather than assumed.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _largest_input(led: "ConstantLedger") -> Fraction:
    """The largest measured input, and at least 1: what ``dominating``
    covers.  ``axis_step`` is not one; it scales the thresholds."""
    return max(led.gen_displacement, led.axis_word_norm, led.linkage_bound, led.contraction_bound,
               led.proj_lipschitz, led.recovery_lipschitz, led.delta, Fraction(1))


@dataclass(frozen=True)
class ConstantLedger:
    profile: str  # "faithful" or "scaled"
    delta: Fraction  # hyperbolicity constant of the space
    gen_displacement: Fraction  # max over generators s of d(x0, s x0)
    axis_step: Fraction  # d(x0, phi x0) = space translation length of phi
    axis_word_norm: Fraction  # word norm of phi
    linkage_bound: Fraction  # Gromov-product bound achievable by linkage letters
    contraction_bound: Fraction  # half-radius ball projection diameter bound
    proj_lipschitz: Fraction  # coarse Lipschitz constant of segment projections
    recovery_lipschitz: Fraction  # distance recovery from projection data
    dominating: Fraction  # single constant dominating all of the above
    segment_length: int  # length of distinguished orbit segments
    coeff: Fraction  # threshold coefficient (10^6 in the faithful profile)
    power: int  # threshold exponent (5 in the faithful profile)
    window: tuple  # thick-set distance window
    cut_window: tuple  # prefix-cut window

    # -- derived formulas ----------------------------------------------

    def capture_threshold(self, K) -> Fraction:
        """Segment length above which the single-segment capture bound applies."""
        return 2 * self.coeff / self.axis_step * (self.dominating**self.power + _frac(K))

    def chain_threshold(self, K) -> Fraction:
        """Segment length for the chain capture and its corollaries."""
        return 3 * self.coeff / self.axis_step * (self.dominating**self.power + _frac(K))

    def block_length(self) -> int:
        """Letters excised around a cut when splicing in an orbit segment."""
        return math.ceil(self.dominating * self.segment_length) + 2

    def alignment_level(self) -> Fraction:
        """Alignment level the replacement maps certify (linkage + snap slack)."""
        return self.linkage_bound + 8 * self.delta + 1

    def derived_checks(self) -> dict:
        largest = _largest_input(self)
        return {
            "dominating_covers_inputs": self.dominating >= largest,
            "dominating_has_faithful_margin": self.dominating >= 10**4 * largest,
            "dominating_square_margin": self.dominating**2 >= 1000 * self.dominating,
            "segment_covers_chain_threshold": Fraction(self.segment_length)
            >= self.chain_threshold(10 * self.dominating),
        }

    def to_json(self) -> dict:
        doc = {
            "profile": self.profile,
            "delta": str(self.delta),
            "gen_displacement": str(self.gen_displacement),
            "axis_step": str(self.axis_step),
            "axis_word_norm": str(self.axis_word_norm),
            "linkage_bound": str(self.linkage_bound),
            "contraction_bound": str(self.contraction_bound),
            "proj_lipschitz": str(self.proj_lipschitz),
            "recovery_lipschitz": str(self.recovery_lipschitz),
            "dominating": str(self.dominating),
            "segment_length": self.segment_length,
            "coeff": str(self.coeff),
            "power": self.power,
            "window": [str(w) for w in self.window],
            "cut_window": [str(w) for w in self.cut_window],
            "derived_checks": self.derived_checks(),
        }
        return doc

    # -- constructors ---------------------------------------------------

    @classmethod
    def faithful(cls, delta, gen_displacement, axis_step, axis_word_norm,
                 linkage_bound, contraction_bound, proj_lipschitz, recovery_lipschitz) -> "ConstantLedger":
        """The scaled ledger with the published constants: ``dominating``
        10^4 times the largest input, coefficient 10^6, exponent 5 and the
        cut window 27/100 to 28/100."""
        inputs = (delta, gen_displacement, axis_step, axis_word_norm,
                  linkage_bound, contraction_bound, proj_lipschitz, recovery_lipschitz)
        led = cls.scaled(*inputs, dominating=10**4 * _largest_input(cls.scaled(*inputs)), coeff=Fraction(10**6),
                         power=5, cut_window=(Fraction(27, 100), Fraction(28, 100)))
        return dataclasses.replace(led, profile="faithful")

    @classmethod
    def scaled(cls, delta, gen_displacement, axis_step, axis_word_norm,
               linkage_bound, contraction_bound, proj_lipschitz, recovery_lipschitz,
               dominating: Optional[Fraction] = None,
               segment_length: Optional[int] = None,
               coeff=Fraction(1), power: int = 1,
               window=(Fraction(1, 4), Fraction(3, 10)),
               cut_window=(Fraction(1, 4), Fraction(3, 10))) -> "ConstantLedger":
        """The ledger of the measured inputs with these entries: by default
        ``dominating`` is the largest input and ``segment_length`` is
        10 coeff dominating^power / axis_step, rounded up."""
        led = cls("scaled", *map(_frac, (delta, gen_displacement, axis_step, axis_word_norm, linkage_bound,
                                         contraction_bound, proj_lipschitz, recovery_lipschitz)),
                  dominating=None, segment_length=None, coeff=_frac(coeff), power=int(power),
                  window=tuple(map(_frac, window)), cut_window=tuple(map(_frac, cut_window)))
        dominating = _largest_input(led) if dominating is None else _frac(dominating)
        if segment_length is None:
            segment_length = math.ceil(10 * led.coeff * dominating**led.power / led.axis_step)
        return dataclasses.replace(led, dominating=dominating, segment_length=int(segment_length))
