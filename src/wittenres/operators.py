"""Concrete symbol data for the deformed de Rham operator.

`dirac_symbol` states sigma(D_V) once, and `_connection` its connection
term.  Derived from them: the order-one symbols of A = c(u) D_V and
B = c(w) D_V, which are c(u) or c(w) times its terms; the endomorphism E
of D_V^2 = nabla^* nabla + E (`endomorphism`); and T_ab (`t_ab`), the
x-linear Taylor coefficient of the laplacian's first-order term, the
connection term negated (T_ab x_b = -omega_a(x)).  Transcribed: the three
leading inverse-power components, written generically in T_ab and E.

Normal coordinates throughout: the connection matrix vanishes at the base
point and its first Taylor coefficient is half a Riemann component, so
omega_st(e_p) = -<grad_p e_s, e_t> expands as -(1/2) R_lpts x^l.  The
first-order term's value T_a at the base point is therefore zero, and so
is its trace T_aa, which holds R_aats, zero by antisymmetry in the first
slot pair.  Neither is stored, and every T_a or T_aa term of the
inverse-symbol recursion drops out.
"""

from __future__ import annotations

from .clifford import c, c_vec, chat, chat_v
from .pdo import Component, PDOSymbol, compose
from .scalars import S_ONE, Scalar
from .terms import F, Term, fct, mul_terms, normalize


def _connection(a: str, x: str) -> tuple[Term, ...]:
    """The connection term omega_a(x) of sigma_0(D_V) without its factor
    x_x: 1/8 R_xats c_s c_t - 1/8 R_xats ch_s ch_t."""
    riem = (fct("riem", x, a, "t", "s"),)
    return (Term(Scalar.of(1, 8), riem, (c("s"), c("t"))),
            Term(Scalar.of(-1, 8), riem, (chat("s"), chat("t"))))


def dirac_symbol() -> PDOSymbol:
    """sigma(D_V): c(eta) = i c(xi) at order one (see `terms`); at order
    zero c(e_p) omega_p(x), the two connection words, and chat(V).  x-linear
    Taylor data only, kept as written: normalizing would expand each
    Clifford product into its blocks and double the products downstream."""
    top = Term(S_ONE, (fct("xi", "f"),), (c("f"),))
    zero = tuple(Term(t.coeff, t.fac + (fct("x", "l"),), (c("p"),) + t.word)
                 for t in _connection("p", "l")) + (chat_v("b"),)
    return PDOSymbol({(1, 0): Component((top,), 1),
                      (0, 0): Component(zero, 1)}, exact=True)


def t_ab(a: str, b: str) -> tuple[Term, ...]:
    """T_ab, the x-linear Taylor coefficient of the laplacian's first-order
    term: the connection term `_connection(a, b)` negated.  Its trace
    T_aa holds R_aats, zero by first-pair antisymmetry, so the inverse
    symbols have no T_aa term."""
    return tuple(Term(-t.coeff, t.fac, t.word) for t in _connection(a, b))


def endomorphism() -> tuple[Term, ...]:
    """E = sigma_0(D_V o D_V) at the base point, where the connection
    laplacian's order-zero symbol vanishes in normal coordinates.  E
    normalizes to 1/8 R_ijkl ch_i ch_j c_k c_l + s/4 + c_i ch(dV_i) + |V|^2.
    """
    d = dirac_symbol()
    return normalize(compose(d, d, [(0, 0)], xmax=0).comps[(0, 0)].terms)


def _with(t: Term, coeff: Scalar, extra: tuple[F, ...],
          norm: tuple[int, int]) -> Term:
    return Term(t.coeff * coeff, t.fac + extra, t.word,
                (t.norm[0] + norm[0], t.norm[1] + norm[1]))


def parametrix_symbols(endo: tuple[Term, ...],
                       power_offset: int) -> PDOSymbol:
    """The three leading symbol components of the inverse power, each
    exact to the x-degree it is stored with, written in `t_ab` and the
    endomorphism endo (`endomorphism()`).

    power_offset 0 selects the full -2m power, 1 the -2m+2 power; the
    effective half-dimension is mt = m - power_offset and the components sit
    at orders -2mt, -2mt-1, -2mt-2.  Every norm exponent is derived from the
    homogeneity bookkeeping, not copied.  The terms are kept as written:
    a caller normalizes the components it reads.
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
        Term(-S_ONE, (fct("delta", "a", "b"), fct("xi", "a"), fct("xi", "b")),
             (), n_main),
        Term(Scalar.of(1, 3) * mt,
             (fct("riem", "a", "j", "b", "k"), fct("x", "j"), fct("x", "k"),
              fct("xi", "a"), fct("xi", "b")), (), n_main),
    ]

    mid = [
        Term(Scalar.of(-2, 3) * mt,
             (fct("ric", "a", "k"), fct("x", "k"), fct("xi", "a")), (),
             n_main),
    ]
    for t in t_ab("a", "b"):
        mid.append(_with(t, Scalar.of(-2) * mt,
                         (fct("x", "b"), fct("xi", "a")), n_main))

    low = [
        Term(Scalar.of(-1, 3) * mt * mt1,
             (fct("ric", "a", "b"), fct("xi", "a"), fct("xi", "b")), (),
             n_low),
    ]
    for t in t_ab("a", "b"):
        low.append(_with(t, Scalar.of(-2) * mt * mt1,
                         (fct("xi", "a"), fct("xi", "b")), n_low))
    for t in endo:
        low.append(_with(t, -mt, (), n_main))

    return PDOSymbol({(base, -2): Component(tuple(top), 2),
                      (base - 1, -2): Component(tuple(mid), 1),
                      (base - 2, -2): Component(tuple(low), 0)})


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


def cu_cw_symbol() -> Component:
    """Multiplication operator c(u) c(w): its one order-zero component,
    exact."""
    return Component((mul_terms(c_vec("u", "r"), c_vec("w", "k")),), None)
