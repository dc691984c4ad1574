"""Concrete symbol data for the deformed de Rham operator.

`dirac_symbol` states sigma(D_V) once.  Derived from it: the order-one
symbols of A = c(u) D_V and B = c(w) D_V, which are c(u) or c(w) times its
terms, and the endomorphism E of D_V^2 = nabla^* nabla + E.  Transcribed:
T_ab, the x-linear Taylor coefficient of the laplacian's first-order term,
and the three leading inverse-power components, written generically in
T_ab and E.

Normal coordinates throughout: the connection matrix vanishes at the base
point and its first Taylor coefficient is half a Riemann component, so
omega_st(e_p) = -<grad_p e_s, e_t> expands as -(1/2) R_lpts x^l.  The
first-order term's value T_a at the base point is therefore zero, and every
T_a product of the inverse-symbol recursion drops out.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .clifford import c, c_vec, chat, chat_v
from .pdo import Component, Order, PDOSymbol, compose
from .scalars import S_I, S_ONE, Scalar
from .terms import F, Term, fct, mul_terms, normalize


def dirac_symbol() -> PDOSymbol:
    """sigma(D_V): i c(xi) at order one; at order zero the two connection
    words, with omega's x-linear curvature value, and chat(V).  x-linear
    Taylor data only, kept as written: normalizing would expand each
    Clifford product into its blocks and double the products downstream."""
    top = Term(S_I, (fct("xi", "f"),), (c("f"),))
    conn = (fct("riem", "l", "p", "t", "s"), fct("x", "l"))
    zero = (Term(Scalar.of(1, 8), conn, (c("p"), c("s"), c("t"))),
            Term(Scalar.of(-1, 8), conn, (c("p"), chat("s"), chat("t"))),
            chat_v("b"))
    return PDOSymbol({(1, 0): Component((top,), 1),
                      (0, 0): Component(zero, 1)}, exact=True)


class LaplaceData(NamedTuple):
    """The data of D_V^2 = nabla^* nabla + E the inverse symbols use."""
    t_ab: Callable[[str, str], tuple[Term, ...]]
    endo: tuple[Term, ...]


def build_laplace_data() -> LaplaceData:
    """T_ab = -1/8 R_bats c_s c_t + 1/8 R_bats ch_s ch_t, transcribed, and
    E = sigma_0(D_V o D_V) at the base point, where the connection
    laplacian's order-zero symbol vanishes in normal coordinates.  E
    normalizes to 1/8 R_ijkl ch_i ch_j c_k c_l + s/4 + c_i ch(dV_i) + |V|^2.

    T_a = 0 in normal coordinates, so it is not stored.
    """

    def t_ab(a: str, b: str) -> tuple[Term, ...]:
        return (
            Term(Scalar.of(-1, 8), (fct("riem", b, a, "t", "s"),),
                 (c("s"), c("t"))),
            Term(Scalar.of(1, 8), (fct("riem", b, a, "t", "s"),),
                 (chat("s"), chat("t"))),
        )

    d = dirac_symbol()
    endo = normalize(compose(d, d, [(0, 0)], xmax=0).comps[(0, 0)].terms)
    return LaplaceData(t_ab, endo)


def _with(t: Term, coeff: Scalar, extra: tuple[F, ...],
          norm: tuple[int, int]) -> Term:
    return Term(t.coeff * coeff, t.fac + extra, t.word,
                (t.norm[0] + norm[0], t.norm[1] + norm[1]))


def parametrix_terms(data: LaplaceData, power_offset: int
                     ) -> dict[Order, tuple[list[Term], int]]:
    """The three leading symbol components of the inverse power, each as
    its unnormalized terms and the x-degree they are exact to, by order.

    power_offset 0 selects the full -2m power, 1 the -2m+2 power; the
    effective half-dimension is mt = m - power_offset and the components sit
    at orders -2mt, -2mt-1, -2mt-2.  Every norm exponent is derived from the
    homogeneity bookkeeping, not copied.
    """
    if power_offset not in (0, 1):
        raise ValueError(f"power_offset must be 0 or 1, got {power_offset}")
    off = power_offset
    mt = Scalar.poly((-off, 1))            # m - off
    mt1 = Scalar.poly((1 - off, 1))        # m - off + 1
    base = 2 * off                          # top order const (slope -2)
    n_main = (base - 2, -2)                 # |xi|^(-2mt-2)
    n_low = (base - 4, -2)                  # |xi|^(-2mt-4)

    top = [
        Term(S_ONE, (fct("delta", "a", "b"), fct("xi", "a"), fct("xi", "b")),
             (), n_main),
        Term(Scalar.of(-1, 3) * mt,
             (fct("riem", "a", "j", "b", "k"), fct("x", "j"), fct("x", "k"),
              fct("xi", "a"), fct("xi", "b")), (), n_main),
    ]

    mid = [
        Term(Scalar.of(-2, 3) * mt * S_I,
             (fct("ric", "a", "k"), fct("x", "k"), fct("xi", "a")), (),
             n_main),
    ]
    for t in data.t_ab("a", "b"):
        mid.append(_with(t, Scalar.of(-2) * mt * S_I,
                         (fct("x", "b"), fct("xi", "a")), n_main))

    low = [
        Term(Scalar.of(1, 3) * mt * mt1,
             (fct("ric", "a", "b"), fct("xi", "a"), fct("xi", "b")), (),
             n_low),
    ]
    for t in data.t_ab("a", "b"):
        low.append(_with(t, Scalar.of(2) * mt * mt1,
                         (fct("xi", "a"), fct("xi", "b")), n_low))
    for t in data.t_ab("a", "a"):
        low.append(_with(t, -mt, (), n_main))
    for t in data.endo:
        low.append(_with(t, -mt, (), n_main))

    return {(base, -2): (top, 2), (base - 1, -2): (mid, 1),
            (base - 2, -2): (low, 0)}


def parametrix_symbols(data: LaplaceData, power_offset: int) -> PDOSymbol:
    """The three leading symbol components of the inverse power
    (`parametrix_terms`), normalized."""
    return PDOSymbol({order: Component(normalize(terms), xtrunc)
                      for order, (terms, xtrunc)
                      in parametrix_terms(data, power_offset).items()})


def _first_order_symbol(field: str) -> PDOSymbol:
    """c(field) times sigma(D_V), component by component."""
    vec = c_vec(field, "r")
    return PDOSymbol({order: Component(tuple(mul_terms(vec, t)
                                             for t in comp.terms),
                                       comp.xtrunc)
                      for order, comp in dirac_symbol().comps.items()},
                     exact=True)


def symbol_of_a() -> PDOSymbol:
    """sigma(c(u) D_V)."""
    return _first_order_symbol("u")


def symbol_of_b() -> PDOSymbol:
    """sigma(c(w) D_V)."""
    return _first_order_symbol("w")


def cu_cw_symbol() -> PDOSymbol:
    """Multiplication operator c(u) c(w): a single order-zero component."""
    t = mul_terms(c_vec("u", "r"), c_vec("w", "k"))
    return PDOSymbol({(0, 0): Component((t,), None)}, exact=True)
