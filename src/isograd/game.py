"""A two-player, two-stage game solved under different coupling regimes.

Player X fixes a binary action ``x`` and announces it; player Y then fixes
``y``.  Both collect bilinear payoffs ``c0 + cx*x + cy*y + cxy*x*y``.  The
module solves the game three ways: classical backwards induction over the
unconstrained strategy square, play restricted to a fixed outcome correlation
(rho in {-1, 0, +1}, the cases where one player can enforce the coupling
unilaterally), and a global comparison in which Y first picks the coupling
and X then best-responds inside it.  The default coefficients give the
headline contrast: backwards induction yields payoffs (2, 2) while the
correlation-selection route yields (4, 3).

At rho = 0 the players mix: the interior indifference point, else a mutual
boundary best response, which two rounds of best responses always reach.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BadParams, UnsupportedRho, require_real

_TIE_TOL = 0.0  # ties break toward action 0 on exactly zero advantage


def _action(advantage: float) -> int:
    """The better action, 1 or 0, given the advantage of playing 1."""
    return 1 if advantage > _TIE_TOL else 0


@dataclass(frozen=True)
class PayoffForm:
    """Bilinear payoff c0 + cx*x + cy*y + cxy*x*y, finite at every pure
    action pair."""

    c0: float
    cx: float
    cy: float
    cxy: float

    def __post_init__(self):
        for name, value in vars(self).items():
            value = require_real(f"payoff coefficient {name}", value)
            if not math.isfinite(value):
                raise BadParams(f"payoff coefficient {name} must be finite, "
                                f"got {value!r}")
            object.__setattr__(self, name, value)
        for x, y in ((0, 0), (0, 1), (1, 0), (1, 1)):
            if not math.isfinite(self(x, y)):
                raise BadParams(f"payoff at (x, y) = ({x}, {y}) is "
                                f"{self(x, y)!r}, not finite")

    def __call__(self, x: float, y: float) -> float:
        """Evaluate at a pure action pair or (by bilinearity and
        independence) at mixed frequencies (p, q)."""
        return self.c0 + self.cx * x + self.cy * y + self.cxy * x * y


@dataclass(frozen=True)
class GameSpec:
    """Payoff forms of the two players (defaults: the headline game)."""

    x_payoff: PayoffForm = PayoffForm(3.0, -2.0, -1.0, 4.0)
    y_payoff: PayoffForm = PayoffForm(1.0, 3.0, 1.0, -2.0)


DEFAULT_GAME = GameSpec()


@dataclass(frozen=True)
class GameOutcome:
    """A solved regime: who plays what, and what both players collect.

    ``kind`` is "pure" (strategy holds actions (x, y)) or "mixed" (strategy
    holds frequencies (p, q)).  Payoffs always equal the payoff forms
    evaluated at the strategy; for mixed play that rests on <xy> = pq
    (independent stages at zero correlation).
    """

    label: str
    kind: str
    strategy: tuple[float, float]
    payoffs: tuple[float, float]


def _outcome(game: GameSpec, label: str, kind: str,
             x: float, y: float) -> GameOutcome:
    return GameOutcome(
        label=label, kind=kind, strategy=(float(x), float(y)),
        payoffs=(float(game.x_payoff(x, y)), float(game.y_payoff(x, y))),
    )


def backward_induction(game: GameSpec = DEFAULT_GAME) -> GameOutcome:
    """Perfect-information solution: Y best-responds to each announced x,
    X picks the better branch; ties break toward action 0."""
    replies = {x: _action(game.y_payoff(x, 1) - game.y_payoff(x, 0))
               for x in (0, 1)}
    x = _action(game.x_payoff(1, replies[1]) - game.x_payoff(0, replies[0]))
    return _outcome(game, "unconstrained", "pure", x, replies[x])


def _solve_independent(game: GameSpec) -> GameOutcome:
    """Zero-correlation play: simultaneous stationarity when the interior
    indifference roots exist, else two rounds of boundary best responses.

    X's payoff is linear in p with slope cx + cxy*q, and Y's in q with
    slope cy + cxy*p.  Without both roots in [0, 1], one player's slope
    keeps its sign (or is constant) over [0, 1], so that player's best
    response is the same at 0 and at 1.  Starting from (0, 0), X then Y, the
    second round is therefore already a mutual best response.
    """
    gx, gy = game.x_payoff, game.y_payoff
    q_root = -gx.cx / gx.cxy if gx.cxy != 0.0 else None
    p_root = -gy.cy / gy.cxy if gy.cxy != 0.0 else None
    if (q_root is not None and 0.0 <= q_root <= 1.0
            and p_root is not None and 0.0 <= p_root <= 1.0):
        return _outcome(game, "rho=0", "mixed", p_root, q_root)

    def x_reply(q: float) -> int:
        return _action(gx.cx + gx.cxy * q)

    def y_reply(p: float) -> int:
        return _action(gy.cy + gy.cxy * p)

    p = x_reply(y_reply(x_reply(0.0)))
    return _outcome(game, "rho=0", "mixed", p, y_reply(p))


def solve_slice(game: GameSpec, rho: float) -> GameOutcome:
    """Solve the game inside one enforceable coupling regime.

    rho=+1 identifies the actions (y = x = xy); rho=-1 opposes them
    (y = 1 - x, xy = 0); both leave X a linear one-variable problem with a
    pure solution.  rho=0 makes the stages independent and the players
    optimize expected payoffs in the mixed frequencies (p, q).
    """
    rho = require_real("rho", rho)
    gx = game.x_payoff
    if rho == 1.0:
        x = _action(gx.cx + gx.cy + gx.cxy)
        return _outcome(game, "rho=+1", "pure", x, x)
    if rho == -1.0:
        x = _action(gx.cx - gx.cy)
        return _outcome(game, "rho=-1", "pure", x, 1 - x)
    if rho == 0.0:
        return _solve_independent(game)
    raise UnsupportedRho(
        f"only the couplings rho in {{-1, 0, +1}} admit a one-sided "
        f"solution; got rho={rho!r}")


def global_comparison(
        game: GameSpec = DEFAULT_GAME,
) -> tuple[tuple[GameOutcome, ...], GameOutcome]:
    """Solve all three coupling regimes and let Y pick the best one.

    Returns the per-regime table (rho = -1, 0, +1 in order) and the outcome
    of the regime maximizing Y's expected payoff; exact ties resolve toward
    the smallest rho.
    """
    table = tuple(solve_slice(game, rho) for rho in (-1.0, 0.0, 1.0))
    chosen = table[0]
    for outcome in table[1:]:
        if outcome.payoffs[1] > chosen.payoffs[1]:
            chosen = outcome
    return table, chosen
