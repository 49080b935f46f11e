"""Provider profit, market welfare, and their closed-form gradients.

Profit is margin times carried throughput, U = (p + q - c) * lam.  Welfare
splits into the user side W_m = s_m(p) * lam and the content side
W_n = s_n(q) * lam, with s_* the per-unit surpluses.  The demand levels m and
n come from the equilibrium, and each hazard -m'/m and per-unit surplus
S/m from the demand's slope and surplus kernels over them.  The reported total
``welfare`` is W_m + W_n + U.

The welfare gradient entries are the derivatives of the surplus sum
W_m + W_n, the objective of the zero-profit pricing problem (on its
constraint set the profit term contributes nothing to tangential
derivatives).  The matching finite-difference checks therefore difference
W_m + W_n, while the profit gradients difference U itself.

lam depends on the prices only through T = m(p) n(q), and on the capacity
directly; its responses lam_T and lam_mu come from ``equilibrium``.  The
capacity gradients are M lam_mu and (s_m + s_n) lam_mu, M = p + q - c the
margin.

Second derivatives, for the optimizers' Newton steps and the implicit-function
sensitivities, are separate calls that reuse a solved equilibrium and
``equilibrium.throughput_curvature``'s lam_TT, so ``evaluate_objectives``
pays nothing for them.  Both objectives are a weight times lam, w lam with
w = M for profit and w = s_m + s_n for welfare, and one formula gives the
Hessian of either from the weight's partials (no cross partial w_pq):

    H_pp = w_pp lam + 2 w_p lam_T T_p + w (lam_TT T_p^2 + lam_T T_pp),
    H_pq = lam_T (w_q T_p + w_p T_q) + w (lam_TT T_p T_q + lam_T T_pq),

and H_qq is H_pp with p and q swapped.  ``profit_hessian`` passes the margin,
with partials (1, 1, 0, 0).  ``welfare_segment_curvature`` passes s_m + s_n
and contracts the Hessian along (1, -1), f'' = H_pp - 2 H_pq + H_qq along
q = cost - p, taking the per-unit surplus derivatives from identities, so a
custom demand needs no extra quadrature: s' = h s - 1, s'' = s' h + s h' and
h' = h^2 - m''/m, h the hazard (``_hazard_slope``, which the sensitivities'
sign rules also read).
"""

from __future__ import annotations

from typing import NamedTuple

from .curves import MarketModel
from .equilibrium import Equilibrium, capacity_response, solve_equilibrium, throughput_curvature


class ObjectiveGradients(NamedTuple):
    profit_price_user: float    # dU/dp
    profit_price_cp: float      # dU/dq
    profit_capacity: float      # dU/dmu
    welfare_price_user: float   # d(W_m + W_n)/dp
    welfare_price_cp: float     # d(W_m + W_n)/dq
    welfare_capacity: float     # d(W_m + W_n)/dmu


_ZERO_GRADIENTS = ObjectiveGradients(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


class ObjectiveReport(NamedTuple):
    profit: float               # U
    user_welfare: float         # W_m
    cp_welfare: float           # W_n
    welfare: float              # W_m + W_n + U
    gradients: ObjectiveGradients
    equilibrium: Equilibrium
    degenerate: bool

    @property
    def surplus_welfare(self) -> float:
        """W_m + W_n, the zero-profit planner's objective."""
        return self.user_welfare + self.cp_welfare


def evaluate_objectives(model: MarketModel, price_user: float,
                        price_cp: float) -> ObjectiveReport:
    """Profit, welfare components, and all six analytic gradients at (p, q).

    Negative margins are legal (optimizers probe them); zero demand yields a
    degenerate report with zero values and zero gradients.
    """
    eq = solve_equilibrium(model, price_user, price_cp)
    if eq.degenerate:
        return ObjectiveReport(0.0, 0.0, 0.0, 0.0, _ZERO_GRADIENTS, eq, True)

    m, n, lam, eps = eq.user_level, eq.cp_level, eq.throughput, eq.elasticity
    margin = price_user + price_cp - model.cost

    s_m = model.user_demand._surplus(price_user) / m
    s_n = model.cp_demand._surplus(price_cp) / n
    profit = margin * lam
    user_welfare = s_m * lam
    cp_welfare = s_n * lam
    surplus_welfare = user_welfare + cp_welfare

    user_hazard = -model.user_demand._slope(price_user) / m
    cp_hazard = -model.cp_demand._slope(price_cp) / n
    lam_mu = capacity_response(model, eq)[1]

    # hazards may diverge at a zero price (convex demands); with an exactly
    # zero margin the hazard term drops out rather than producing 0 * inf
    margin_weight = margin * eps * lam
    hazard_term = (lambda h: 0.0 if margin_weight == 0.0 else margin_weight * h)
    gradients = ObjectiveGradients(
        profit_price_user=lam - hazard_term(user_hazard),
        profit_price_cp=lam - hazard_term(cp_hazard),
        profit_capacity=margin * lam_mu,
        welfare_price_user=(-lam - user_hazard
                            * (cp_welfare - surplus_welfare * (1.0 - eps))),
        welfare_price_cp=(-lam - cp_hazard
                          * (user_welfare - surplus_welfare * (1.0 - eps))),
        welfare_capacity=(s_m + s_n) * lam_mu,
    )
    return ObjectiveReport(
        profit=profit,
        user_welfare=user_welfare,
        cp_welfare=cp_welfare,
        welfare=surplus_welfare + profit,
        gradients=gradients,
        equilibrium=eq,
        degenerate=False,
    )


def _hazard_slope(h: float, curvature: float, level: float) -> float:
    """h' of the hazard h = -m'/m, from m'' (``curvature``) and the level m."""
    return h * h - curvature / level


def _weighted_hessian(model: MarketModel, eq: Equilibrium, weight) -> tuple[float, float, float]:
    """(H_pp, H_pq, H_qq) of w lam at the equilibrium's prices; zeros where
    demand vanishes.  ``weight(m', n', m'', n'')`` returns the weight and its
    partials (w, w_p, w_q, w_pp, w_qq); w_pq is 0."""
    if eq.degenerate:
        return 0.0, 0.0, 0.0
    p, q = eq.price_user, eq.price_cp
    m, n, lam = eq.user_level, eq.cp_level, eq.throughput
    m_1, n_1 = model.user_demand._slope(p), model.cp_demand._slope(q)
    m_2, n_2 = model.user_demand._curvature(p), model.cp_demand._curvature(q)
    lam_t, lam_tt = throughput_curvature(model, eq)
    w, w_p, w_q, w_pp, w_qq = weight(m_1, n_1, m_2, n_2)
    t_p, t_q = m_1 * n, m * n_1
    h_pp = w_pp * lam + 2.0 * w_p * lam_t * t_p + w * (lam_tt * t_p * t_p + lam_t * m_2 * n)
    h_qq = w_qq * lam + 2.0 * w_q * lam_t * t_q + w * (lam_tt * t_q * t_q + lam_t * m * n_2)
    h_pq = lam_t * (w_q * t_p + w_p * t_q) + w * (lam_tt * t_p * t_q + lam_t * m_1 * n_1)
    return h_pp, h_pq, h_qq


def profit_hessian(model: MarketModel, eq: Equilibrium):
    """((U_pp, U_pq), (U_pq, U_qq)) at the equilibrium's prices, the form
    ``optimize.concave_step`` takes; zero where demand vanishes, as the
    gradients are."""
    margin = eq.price_user + eq.price_cp - model.cost
    u_pp, u_pq, u_qq = _weighted_hessian(model, eq, lambda *_: (margin, 1.0, 1.0, 0.0, 0.0))
    return (u_pp, u_pq), (u_pq, u_qq)


def welfare_segment_curvature(model: MarketModel, eq: Equilibrium) -> float:
    """d^2 (W_m + W_n) / dp^2 along q = cost - p at the equilibrium's prices;
    zero where demand vanishes."""
    def surplus_terms(demand, price, level, slope, curvature):
        """(s, s', s''): the per-unit surplus and its derivatives, from the hazard
        h = -m'/m and its slope."""
        s = demand._surplus(price) / level
        h = -slope / level
        s_1 = h * s - 1.0
        return s, s_1, s_1 * h + s * _hazard_slope(h, curvature, level)

    def weight(m_1, n_1, m_2, n_2):
        s_m, s_m1, s_m2 = surplus_terms(model.user_demand, eq.price_user, eq.user_level,
                                        m_1, m_2)
        s_n, s_n1, s_n2 = surplus_terms(model.cp_demand, eq.price_cp, eq.cp_level, n_1, n_2)
        return s_m + s_n, s_m1, s_n1, s_m2, s_n2

    w_pp, w_pq, w_qq = _weighted_hessian(model, eq, weight)
    return w_pp - 2.0 * w_pq + w_qq
