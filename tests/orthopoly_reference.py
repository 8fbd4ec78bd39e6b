"""Reference recurrences that only the tests use.

``ref_laguerre_pair``, ``ref_gegenbauer_pair`` and ``ref_hermite_pair`` write
out each family's three-term recurrence as a plain loop over Python floats,
returning (p_m(x), p_(m-1)(x)) with the second +0.0 at m = 0.  The one
in-place loop of ``entrofun.orthopoly`` performs the same IEEE operations in
the same order, so it must match them bit for bit on floats and arrays alike.
"""


def ref_laguerre_pair(m: int, alpha: float, x: float) -> tuple[float, float]:
    """(L_m^(alpha)(x), L_(m-1)^(alpha)(x))."""
    if m == 0:
        return 1.0, 0.0
    p, p_prev = alpha + 1.0 - x, 1.0
    for n in range(1, m):
        p, p_prev = ((2 * n + 1 + alpha - x) * p - (n + alpha) * p_prev) / (n + 1.0), p
    return p, p_prev


def ref_gegenbauer_pair(m: int, alpha: float, x: float) -> tuple[float, float]:
    """(C_m^(alpha)(x), C_(m-1)^(alpha)(x))."""
    if m == 0:
        return 1.0, 0.0
    p, p_prev = 2.0 * alpha * x, 1.0
    for n in range(2, m + 1):
        p, p_prev = (2.0 * (n - 1 + alpha) * x * p - ((n - 2) + 2 * alpha) * p_prev) / n, p
    return p, p_prev


def ref_hermite_pair(m: int, x: float) -> tuple[float, float]:
    """(H_m(x), H_(m-1)(x))."""
    if m == 0:
        return 1.0, 0.0
    p, p_prev = 2.0 * x, 1.0
    for n in range(1, m):
        p, p_prev = 2.0 * x * p - 2.0 * n * p_prev, p
    return p, p_prev
