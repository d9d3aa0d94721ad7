"""What the benchmark reads of the package's term view.

perfbench/ defines the benchmark and reads SuperPoly.terms: corpus.odd_terms
takes each key's even and odd fields inside grassmann_matrix's check, and
spans.py counts terms as len(p.terms).  A change that breaks either read
shows in a benchmark run only as failed operations, and this suite does not
run perfbench/tests, so this guard loads perfbench/corpus.py by path, reads
it only, and checks those reads on one small seeded pair: a 2|2 supermatrix
pair over Lambda(theta1..theta6), against the kernel's product and the
tests' model of the terms.
"""

import random
import types
from pathlib import Path

from model import terms_of, word
from supergeom import Context

CORPUS = Path(__file__).resolve().parent.parent / "perfbench" / "corpus.py"
GR6 = Context(odd=[f"theta{i}" for i in range(1, 7)])


def load_corpus():
    """perfbench/corpus.py as a module, compiled from its text, so no
    bytecode is written beside it."""
    corpus = types.ModuleType("bench_corpus")
    corpus.__file__ = str(CORPUS)
    exec(compile(CORPUS.read_text(), str(CORPUS), "exec"), corpus.__dict__)
    return corpus


def entries(m):
    n = m.source.total
    return [m.entry(i, j) for i in range(n) for j in range(n)]


def test_the_benchmark_reads_the_terms_view_as_the_kernel_computes_it():
    corpus = load_corpus()
    rng = random.Random(51)
    s, t = (corpus.random_invertible(rng, GR6, (2, 2)) for _ in range(2))
    product = s @ t
    n = product.source.total
    got = [[corpus.odd_terms(product.entry(i, j)) for j in range(n)] for i in range(n)]
    assert got == corpus.grassmann_product(s, t)
    assert any(len(cell) > 1 for row in got for cell in row)
    for p in entries(s) + entries(t) + entries(product):
        assert corpus.odd_terms(p) == {tuple(word(m.mask)): c for m, c in terms_of(p).items()}
        assert len(p.terms) == len(p) == len(p.nums)
