"""The irreducible representations of H_n(q0) in Hoefsmit's seminormal form.

For an integer q0 >= 1 and a partition lam of n, rho_lam acts on a space
with one basis vector v_t per standard tableau t of shape lam.  Let
c_t(k) be the content (column minus row) of the entry k in t, and let
r = c_t(i+1) - c_t(i) for a generator T_i; r is never 0.  With

    a(r) = (q0 - 1) q0^r / (q0^r - 1),   or its limit 1/r at q0 = 1,

T_i v_t = a(r) v_t + b v_s, where s = s_i t is t with i and i+1
swapped.  The v_s term is there only when s is standard, which happens
exactly when |r| >= 2.  Then b is 1 when r > 0 and a(r) a(-r) + q0 when
r < 0, so each 2x2 block on (v_t, v_s) has trace q0 - 1 and determinant
-q0.  This is Hoefsmit's form (thesis, 1974), as in Mathas,
*Iwahori-Hecke algebras and Schur algebras of the symmetric group*
(1999); at q0 = 1 it is Young's seminormal form of S_n.

A `Block` holds each rho_lam(T_i) as sparse integer columns, every entry
times one common denominator D, so that the relations of H_n(q0) and the
Jucys-Murphy eigenvalues can be checked exactly on ints.  It assumes
none of the facts the multiplicity proof needs: it computes them, and
`spectral` decides from them.  A block also gives rho_lam(tau) modulo a
prime, built by `Block.apply`, the action whose relations are checked,
in the order of `hecke._tau_walk`.
"""

from __future__ import annotations

import math

from .polyring import q_int

__all__ = ["Block", "partitions"]

# one generator: the diagonal, the partner index (-1 for none) and the
# off-diagonal entry of every column, all times the block's denominator
_Gen = tuple[list[int], list[int], list[int]]


def partitions(n: int) -> list[tuple[int, ...]]:
    """The partitions of n, in decreasing lexicographic order."""

    def below(m: int, cap: int) -> list[tuple[int, ...]]:
        if m == 0:
            return [()]
        return [(p, *rest) for p in range(min(m, cap), 0, -1) for rest in below(m - p, p)]

    return below(n, n)


def standard_tableaux(shape: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The standard tableaux of `shape`, each as its row word.

    Entry k of the tableau sits in row word[k - 1], counted from 0; the
    words come in lexicographic order.
    """
    n = sum(shape)
    lengths = [0] * len(shape)
    word: list[int] = []
    out: list[tuple[int, ...]] = []

    def place() -> None:
        if len(word) == n:
            out.append(tuple(word))
            return
        for row, cap in enumerate(shape):
            if lengths[row] < cap and (row == 0 or lengths[row - 1] > lengths[row]):
                lengths[row] += 1
                word.append(row)
                place()
                word.pop()
                lengths[row] -= 1

    place()
    return out


def contents(word: tuple[int, ...]) -> tuple[int, ...]:
    """The content, column minus row, of each entry of a row word."""
    seen = [0] * (max(word) + 1)
    out = []
    for row in word:
        out.append(seen[row] - row)
        seen[row] += 1
    return tuple(out)


def _scaled_q_int(c: int, q0: int, n: int) -> int:
    # q0^n [c]_{q0}, an integer for |c| <= n: [-m] = -[m] / q0^m
    if c >= 0:
        return q0**n * q_int(c)(q0)
    return -(q0 ** (n + c)) * q_int(-c)(q0)


class Block:
    """rho_lam(T_1), ..., rho_lam(T_{n-1}) at q0, as integer columns.

    `tableaux` are the row words of the standard tableaux of `shape`,
    the basis in this order; `contents` their content vectors.
    `gens[i - 1]` holds D * T_i column by column: for each t, the
    coefficient of v_t in D * T_i v_t, the index of the partner s_i t
    (-1 when it is not standard) and the coefficient of v_{s_i t}.  D =
    `denominator` is the least common multiple of the denominators of
    the entries.
    """

    __slots__ = ("shape", "q0", "tableaux", "contents", "denominator", "gens")

    def __init__(self, shape: tuple[int, ...], q0: int) -> None:
        self.shape = shape
        self.q0 = q0
        self.tableaux = standard_tableaux(shape)
        self.contents = [contents(t) for t in self.tableaux]
        index = {t: j for j, t in enumerate(self.tableaux)}
        n = sum(shape)

        # a(r) = num / den(|r|), and the off-diagonal a(r) a(-r) + q0 is
        # (q0 den^2 - u v) / den^2, with u = (q0 - 1) q0^m, v = q0 - 1
        # (both 1 at q0 = 1)
        def den(m: int) -> int:
            return m if q0 == 1 else q0**m - 1

        def u(m: int) -> int:
            return 1 if q0 == 1 else (q0 - 1) * q0**m

        v = 1 if q0 == 1 else q0 - 1
        # per generator, per column: (r, partner)
        moves = []
        for i in range(1, n):
            col = []
            for t, c in zip(self.tableaux, self.contents):
                # s_i t moves i and i+1 between rows; in one row it is
                # not standard, and neither is a swap that breaks a column
                a, b = t[i - 1], t[i]
                s = index.get(t[: i - 1] + (b, a) + t[i + 1 :], -1) if a != b else -1
                col.append((c[i] - c[i - 1], s))
            moves.append(col)
        dens = {den(abs(r)) ** (2 if s >= 0 else 1) for col in moves for r, s in col}
        big_d = math.lcm(*dens)
        self.denominator = big_d
        self.gens: list[_Gen] = []
        for col in moves:
            diag, partner, off = [], [], []
            for r, s in col:
                m = abs(r)
                d = den(m)
                diag.append(big_d // d * (u(m) if r > 0 else -v))
                partner.append(s)
                if s < 0:
                    off.append(0)
                elif r > 0:
                    off.append(big_d)
                else:
                    off.append(big_d // d**2 * (q0 * d * d - u(m) * v))
            self.gens.append((diag, partner, off))

    def apply(self, i: int, vec: dict[int, int]) -> dict[int, int]:
        """D * rho(T_i) times a sparse integer vector; zero entries dropped."""
        diag, partner, off = self.gens[i - 1]
        out: dict[int, int] = {}
        for t, x in vec.items():
            out[t] = out.get(t, 0) + diag[t] * x
            s = partner[t]
            if s >= 0:
                out[s] = out.get(s, 0) + off[t] * x
        return {t: x for t, x in out.items() if x}

    def relation_failure(self) -> str | None:
        """The first defining relation of H_n(q0) that the block breaks.

        Checked on every basis column, on the scaled generators A_i =
        D rho(T_i): (A_i - q0 D)(A_i + D) = 0, A_i A_{i+1} A_i =
        A_{i+1} A_i A_{i+1}, and A_i A_j = A_j A_i for |i - j| >= 2.
        None when all hold.
        """
        q0, big_d, m = self.q0, self.denominator, len(self.gens)
        apply = self.apply
        for t in range(len(self.tableaux)):
            e = {t: 1}
            # A_j e, built once per column
            ae = {j: apply(j, e) for j in range(1, m + 1)}
            for i in range(1, m + 1):
                want = _combine((q0 - 1) * big_d, ae[i], q0 * big_d * big_d, e)
                if apply(i, ae[i]) != want:
                    return f"(T{i} - q)(T{i} + 1) = 0"
                if i < m and apply(i, apply(i + 1, ae[i])) != apply(i + 1, apply(i, ae[i + 1])):
                    return f"T{i} T{i + 1} T{i} = T{i + 1} T{i} T{i + 1}"
                for j in range(i + 2, m + 1):
                    if apply(j, ae[i]) != apply(i, ae[j]):
                        return f"T{i} T{j} = T{j} T{i}"
        return None

    def jucys_murphy_failure(self) -> int | None:
        """The first k whose L_k is not diag([c_t(k)]_{q0}) in this block.

        L_1 = 0 and L_{k+1} = q0^-1 (T_k L_k T_k + T_k): at q0 = 1 this is
        the classical sum of the transpositions (j k), j < k, and at
        q0 >= 2 it is (M_k - 1)/(q0 - 1) for the multiplicative
        Jucys-Murphy elements M_{k+1} = q0^-1 T_k M_k T_k, M_1 = 1.  Each
        L_{k+1} is computed from the L_k just verified, with the
        denominators cleared, and must be diagonal with the entries
        [c_t(k+1)]_{q0}.  None when every L_k is.
        """
        q0, big_d = self.q0, self.denominator
        n = len(self.gens) + 1
        # q0^n L_k, an integer diagonal
        scaled = [0] * len(self.tableaux)
        for k in range(1, n):
            for t in range(len(self.tableaux)):
                at = self.apply(k, {t: 1})
                lat = {s: scaled[s] * x for s, x in at.items()}
                got = _combine(1, self.apply(k, lat), q0**n * big_d, at)
                want = _scaled_q_int(self.contents[t][k], q0, n)
                if got != ({t: q0 * big_d * big_d * want} if want else {}):
                    return k + 1
            scaled = [_scaled_q_int(c[k], q0, n) for c in self.contents]
        return None

    def connected(self) -> bool:
        """Whether the nonzero off-diagonal pairs link every tableau."""
        seen = {0}
        todo = [0]
        while todo:
            t = todo.pop()
            for _, partner, off in self.gens:
                s = partner[t]
                if s >= 0 and s not in seen and off[t] and off[s]:
                    seen.add(s)
                    todo.append(s)
        return len(seen) == len(self.tableaux)

    def tau_mod(self, p: int) -> list[list[int]]:
        """The rows of rho(tau) reduced mod a prime p that does not divide D.

        rho(tau) = sum over g of rho(T_g) ... rho(T_{n-1}), the g = n term
        the identity.  Column t is built by `apply` alone, in the order of
        hecke._tau_walk: starting at v_t, each step applies one generator,
        n - 1 down to 1, times D^-1 mod p, and the column is the running
        sum of the steps.  The relations and Jucys-Murphy checks run on
        the same `apply`.
        """
        d = len(self.tableaux)
        inv = pow(self.denominator, -1, p)
        cols = []
        for t in range(d):
            step, acc = {t: 1}, {t: 1}
            for g in range(len(self.gens), 0, -1):
                step = {s: x * inv % p for s, x in self.apply(g, step).items()}
                for s, x in step.items():
                    acc[s] = (acc.get(s, 0) + x) % p
            cols.append([acc.get(s, 0) for s in range(d)])
        return [list(row) for row in zip(*cols)]


def _combine(a: int, x: dict[int, int], b: int, y: dict[int, int]) -> dict[int, int]:
    # a x + b y for sparse vectors, zero entries dropped
    out = {t: a * c for t, c in x.items()}
    for t, c in y.items():
        out[t] = out.get(t, 0) + b * c
    return {t: c for t, c in out.items() if c}
