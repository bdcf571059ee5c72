"""Instruction-mix model.

An :class:`InstructionMix` maps op classes to occurrence weights and
exposes the cumulative table the synthetic generator samples from.
Weights need not sum to one; they are normalised on construction.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.isa import OpClass


class InstructionMix:
    """Normalised categorical distribution over op classes."""

    def __init__(self, weights: Dict[OpClass, float]):
        if not weights:
            raise ValueError("instruction mix cannot be empty")
        total = float(sum(weights.values()))
        if total <= 0:
            raise ValueError("instruction mix weights must sum to > 0")
        for opclass, weight in weights.items():
            if weight < 0:
                raise ValueError(f"negative weight for {opclass}: {weight}")
        self._fractions: Dict[OpClass, float] = {
            opclass: weight / total for opclass, weight in weights.items()
        }
        cumulative: List[Tuple[float, OpClass]] = []
        acc = 0.0
        for opclass, fraction in self._fractions.items():
            acc += fraction
            cumulative.append((acc, opclass))
        # guard against floating point drift on the last bucket
        cumulative[-1] = (1.0, cumulative[-1][1])
        self._cumulative = tuple(cumulative)

    def fraction(self, opclass: OpClass) -> float:
        """The normalised fraction of ``opclass`` in this mix."""
        return self._fractions.get(opclass, 0.0)

    @property
    def fractions(self) -> Dict[OpClass, float]:
        """A copy of the normalised class fractions."""
        return dict(self._fractions)

    @property
    def cumulative(self) -> Tuple[Tuple[float, OpClass], ...]:
        """``(cumulative fraction, op class)`` pairs, ending at 1.0.

        A uniform ``x`` in ``[0, 1)`` selects the first class whose
        cumulative fraction is ``>= x``.
        """
        return self._cumulative

    def items(self) -> List[Tuple[OpClass, float]]:
        """The (op class, fraction) pairs of this mix."""
        return list(self._fractions.items())

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{opclass.value}={frac:.3f}" for opclass, frac in self._fractions.items()
        )
        return f"InstructionMix({parts})"
