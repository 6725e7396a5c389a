"""Packed-monomial codec: pack/unpack, arithmetic, and order laws."""

import random
from itertools import combinations, product

import pytest

from pfaffcalc.fields import QQ
from pfaffcalc.gbengine import FreeModuleOrder
from pfaffcalc.monomials import MAX_EXP, OrderCodec
from pfaffcalc.rings import ring_for


# -- reference comparators (definition-level, for cross-checking) ----------

def cmp_grevlex_ref(ea, eb):
    """Definition: higher total degree wins; on ties the first nonzero
    entry of ea-eb scanning from the smallest variable decides, negative
    meaning ea is larger."""
    da, db = sum(ea), sum(eb)
    if da != db:
        return 1 if da > db else -1
    for x, y in zip(ea, eb):
        if x != y:
            return 1 if x < y else -1
    return 0


def random_exps(rng, nvars, maxdeg=9):
    return tuple(rng.randrange(maxdeg + 1) for _ in range(nvars))


@pytest.mark.parametrize("name,ref", [("grevlex", cmp_grevlex_ref)])
@pytest.mark.parametrize("nvars", [1, 2, 5, 11])
def test_pack_roundtrip_and_order(name, ref, nvars):
    codec = OrderCodec(nvars)
    rng = random.Random("codec|%s|%d" % (name, nvars))
    pool = [random_exps(rng, nvars) for _ in range(60)]
    for e in pool:
        assert codec.unpack(codec.pack(e)) == e
    for ea, eb in combinations(pool[:25], 2):
        got = (codec.pack(ea) > codec.pack(eb)) - (codec.pack(ea) < codec.pack(eb))
        assert got == ref(ea, eb), (ea, eb)


# Packed keys from the earlier multi-block codec; the layout must not move.
FROZEN_PACK = {
    ("grevlex", 1): (24, [(0,), (1,), (7,), (120,)],
                     [0x7f, 0x17e, 0x778, 0x7807]),
    ("grevlex", 2): (32, [(0, 0), (1, 0), (0, 1), (3, 5), (120, 120)],
                     [0x7f7f, 0x17e7f, 0x17f7e, 0x87c7a, 0xf00707]),
    ("grevlex", 5): (56, [(0,) * 5, (1, 0, 0, 0, 0), (0, 0, 0, 0, 1),
                          (2, 0, 3, 1, 4), (120,) * 5],
                     [0x7f7f7f7f7f, 0x17e7f7f7f7f, 0x17f7f7f7f7e,
                      0xa7d7f7c7e7b, 0x2580707070707]),
}


@pytest.mark.parametrize("name,nvars", sorted(FROZEN_PACK))
def test_pack_values_are_frozen(name, nvars):
    codec = OrderCodec(nvars)
    nbits, pool, keys = FROZEN_PACK[(name, nvars)]
    assert codec.nbits == nbits
    assert [codec.pack(e) for e in pool] == keys


# (shift, key(2, pack(0, 1, ..., n-1)), key(0, one)) of a rank-3
# FreeModuleOrder over ring_for(4), from the earlier multi-block codec
FROZEN_MODULE_KEYS = {
    ("x", "grevlex"): (64, 0xffffe000f7f7e7d7c7b7a,
                       0x10000000007f7f7f7f7f7f),
    ("xt", "grevlex"): (96, 0xffffe002d7f7e7d7c7b7a79787776,
                        0x10000000007f7f7f7f7f7f7f7f7f7f),
}


@pytest.mark.parametrize("vars,order", sorted(FROZEN_MODULE_KEYS))
def test_module_key_layout_is_frozen(vars, order):
    ring = ring_for(4, QQ, vars=vars)
    o = FreeModuleOrder(ring, 3)
    m = ring.codec.pack(tuple(range(len(ring.names))))
    assert (o.comp_bits[1], o.key(2, m), o.key(0, ring.codec.one)) == \
        FROZEN_MODULE_KEYS[(vars, order)]


def test_mul_div_divides_lcm_deg():
    codec = OrderCodec(5)
    rng = random.Random("codec|laws")
    for _ in range(50):
        ea = random_exps(rng, 5, maxdeg=6)
        eb = random_exps(rng, 5, maxdeg=6)
        a, b = codec.pack(ea), codec.pack(eb)
        prod = codec.mul(a, b)
        assert codec.unpack(prod) == tuple(x + y for x, y in zip(ea, eb))
        assert codec.deg(prod) == sum(ea) + sum(eb)
        assert codec.divides(a, prod) and codec.divides(b, prod)
        assert codec.div(prod, a) == b and codec.div(prod, b) == a
        lcm = codec.unpack(codec.lcm(a, b))
        assert lcm == tuple(max(x, y) for x, y in zip(ea, eb))
        assert codec.coprime(a, b) == all(x == 0 or y == 0
                                          for x, y in zip(ea, eb))


@pytest.mark.parametrize("nvars", [1, 3, 21, 28, 36])
def test_packed_lcm_and_coprime_match_their_definitions(nvars):
    """lcm and coprime work on the packed fields at once; they must
    agree with unpack, max / zero test, pack, over the whole legal range."""
    codec = OrderCodec(nvars)
    rng = random.Random("codec|swar|%d" % nvars)

    def draw():
        return tuple(rng.choice((0, MAX_EXP, rng.randrange(MAX_EXP + 1),
                                 rng.randrange(3)))
                     for _ in range(nvars))

    # even / odd supports, so coprime pairs occur at every nvars
    halves = [tuple(x if i % 2 == k else 0 for i, x in enumerate(draw()))
              for k in (0, 1) for _ in range(4)]
    pool = [(0,) * nvars, (MAX_EXP,) * nvars] + halves + \
        [draw() for _ in range(60)]
    for ea in pool:
        a = codec.pack(ea)
        for eb in pool[:20]:
            b = codec.pack(eb)
            for x, y, u, v in ((a, b, ea, eb), (b, a, eb, ea)):
                assert codec.lcm(x, y) == \
                    codec.pack(tuple(max(i, j) for i, j in zip(u, v)))
                assert codec.coprime(x, y) == \
                    all(i == 0 or j == 0 for i, j in zip(u, v))
    for v in range(nvars):
        e = [0] * nvars
        e[v] = MAX_EXP
        top = codec.pack(e)
        assert codec.lcm(top, codec.var(v)) == top
        assert not codec.coprime(top, codec.var(v))
        assert codec.coprime(top, codec.one)


def test_divides_is_componentwise():
    codec = OrderCodec(3)
    a = codec.pack((1, 0, 2))
    b = codec.pack((1, 1, 2))
    assert codec.divides(a, b)
    assert not codec.divides(b, a)


def test_var_monomials():
    codec = OrderCodec(4)
    for i in range(4):
        e = codec.unpack(codec.var(i))
        assert sum(e) == 1 and e[i] == 1


def test_pack_rejects_out_of_range():
    codec = OrderCodec(3)
    with pytest.raises((ValueError, OverflowError)):
        codec.pack((1, 10 ** 9, 0))


# -- the exponent cap ---------------------------------------------------------

CODECS = {"grevlex": OrderCodec(3)}
NEAR_CAP = (0, 1, 7, 60, 113, 119, MAX_EXP)


@pytest.mark.parametrize("name", sorted(CODECS))
def test_pack_at_the_cap_and_one_above(name):
    codec = CODECS[name]
    assert MAX_EXP == 120     # 7 below the largest exponent a field holds
    top = codec.pack((MAX_EXP,) * 3)
    assert codec.unpack(top) == (MAX_EXP,) * 3
    assert codec.deg(top) == 3 * MAX_EXP
    for v in range(3):
        e = [0, 0, 0]
        e[v] = MAX_EXP
        assert codec.unpack(codec.pack(e)) == tuple(e)
        e[v] = MAX_EXP + 1
        with pytest.raises(ValueError, match="out of range"):
            codec.pack(e)
        e[v] = -1
        with pytest.raises(ValueError, match="out of range"):
            codec.pack(e)


@pytest.mark.parametrize("name", sorted(CODECS))
def test_divides_lcm_div_near_the_cap(name):
    codec = CODECS[name]
    pool = [e + (3,) for e in product(NEAR_CAP, repeat=2)]
    for ea in pool:
        a = codec.pack(ea)
        for eb in pool:
            b = codec.pack(eb)
            assert codec.divides(b, a) == all(y <= x for x, y in zip(ea, eb))
            L = codec.lcm(a, b)
            el = tuple(max(x, y) for x, y in zip(ea, eb))
            assert codec.unpack(L) == el
            assert codec.divides(a, L) and codec.divides(b, L)
            assert codec.unpack(codec.div(L, a)) == \
                tuple(x - y for x, y in zip(el, ea))
            assert codec.mul(codec.div(L, b), b) == L


@pytest.mark.parametrize("name", sorted(CODECS))
def test_mul_near_the_cap(name):
    """A product is exact while every exponent sum fits below a field's
    guard bit, that is up to 127 = MAX_EXP + 7; a larger sum raises
    instead of returning a corrupted monomial."""
    codec = CODECS[name]
    for x, y in product(NEAR_CAP, repeat=2):
        ea, eb = (x, 0, y), (y, x, 0)
        if x + y > 127:
            with pytest.raises(ValueError, match="exponent range"):
                codec.mul(codec.pack(ea), codec.pack(eb))
            continue
        prod = codec.mul(codec.pack(ea), codec.pack(eb))
        assert codec.unpack(prod) == (x + y, x, y)
        assert codec.deg(prod) == 2 * (x + y)
        assert codec.divides(codec.pack(ea), prod)
        assert codec.div(prod, codec.pack(eb)) == codec.pack(ea)
