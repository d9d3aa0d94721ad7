"""left_quotient and rename against the inversion-count model.

Both act on a polynomial term by term, so checking every basis monomial
theta_S proves them at that size.  The signs come from tests/model.py's
inversion counts, not from poly._SWAP_PARITY or _odd_word.

Over Lambda(theta1..theta5), for every disjoint pair of masks (M, S) with
M nonzero, theta_(M + S).left_quotient(theta_M) is the g with
theta_M * g = theta_(M + S): theta_product(M, S)'s sign times theta_S,
the sign being its own inverse.  A term that lacks a generator of M does
not factor, alone or beside one that does, and raises ValueError.

Over Lambda(theta1..theta4), for every permutation p of the four odd
names, rename by theta_i -> theta_p(i) sends theta_S to the product of
the images in S's increasing order: sort_word's sign times the sorted
target.

Each failure names its tuple: (M, S), (M, T) or (p, S).
"""

from itertools import permutations

from model import grassmann, odd_monomial, sort_word, theta_product, word

Q = 5


def test_left_quotient_strips_the_factor_with_the_model_sign():
    ctx = grassmann(Q)
    failures = []
    for m in range(1, 1 << Q):
        for s in range(1 << Q):
            if m & s:
                continue
            (sign,) = theta_product(m, s).values()
            got = odd_monomial(ctx, m | s).left_quotient(odd_monomial(ctx, m))
            if got != sign * odd_monomial(ctx, s):
                failures.append((m, s))
    assert not failures, f"theta_(M + S) / theta_M wrong at (M, S) in {failures}"


def test_a_term_without_a_generator_of_the_factor_is_refused():
    ctx = grassmann(Q)
    failures = []
    for m in range(1, 1 << Q):
        factor = odd_monomial(ctx, m)
        for t in range(1 << Q):
            if t & m == m:
                continue
            for p in (odd_monomial(ctx, t), factor + odd_monomial(ctx, t)):
                try:
                    p.left_quotient(factor)
                except ValueError:
                    continue
                failures.append((m, t))
    assert not failures, f"theta_T / theta_M not refused at (M, T) in {failures}"


def test_rename_permutes_with_the_sort_sign():
    ctx = grassmann(4)
    failures = []
    for perm in permutations(range(4)):
        names = {ctx.odd[i]: ctx.odd[perm[i]] for i in range(4)}
        for s in range(1 << 4):
            sign, target = sort_word([perm[i] for i in word(s)])
            want = sign * odd_monomial(ctx, sum(1 << j for j in target))
            if odd_monomial(ctx, s).rename(ctx, names) != want:
                failures.append((perm, s))
    assert not failures, f"rename by p wrong on theta_S at (p, S) in {failures}"
