import dataclasses
import itertools
import random
from typing import Optional

import pytest

from shortcat import braiding, cli
from shortcat.braiding import (
    ShortBraiding, braidings_equal, check_short_symmetry, s_from_short_braiding,
    short_braiding_from_s, short_braidings_equal, theta3, validate_braided_transport_functor,
    validate_short_braiding,
)
from shortcat.catalogue import (
    bz2_category, catalogue_braidings, catalogue_morphisms, catalogue_short_braidings,
    catalogue_skew_monoidals, thin_skew_monoidal,
)
from shortcat.classify import Certificate, certify, inverses
from shortcat.errors import NoSolution
from shortcat.fileformat import StructureFile, serialize
from shortcat.fincat import FinCategory
from shortcat.induce import induce_short_skew
from shortcat.shortskew import (
    LOOSE, TIGHT, ShortSkewMulticategory, embed_multi_morphism, identity_skew_morphism,
    validate_short_skew,
)
from shortcat.skewmon import (
    Braiding, SkewMonCategory, check_symmetry, validate_braiding, validate_skew_monoidal,
)
from shortcat.transport import ks_object, skew_monoidal_roundtrip
from test_kernel import _cyclic_files
from test_transport import indiscrete_census


def classifier_short_braiding_from_s(m: ShortSkewMulticategory, cert: Certificate,
                                     s: Braiding, name: Optional[str] = None) -> ShortBraiding:
    """The three swap families rebuilt from a braiding s on ks_object(m,
    cert), through double abstraction against the classifiers: the inverse
    of s_from_short_braiding, and the oracle of the beta -> s -> beta checks.
    It reads s as a braiding on the rebuilt category, so it does not apply
    to a braiding on a category whose roundtrip rebuilds other tensor
    objects; short_braiding_from_s induces the swap tables straight off s."""
    v = cert.view
    base = v.base
    inv = inverses(cert)
    name = name or (s.name + ".beta")

    def dprime(f: str) -> str:
        return inv.prime[inv.prime[f]]

    b32 = {}
    for f in m.multimaps(TIGHT, 3):
        a, b, c = m.dom(f)
        carrier = base.compose_opt(dprime(f), s.s[(a, b, c)])
        img = v.safe_post(carrier, theta3(m, cert, a, c, b))
        if img is None:
            raise NoSolution(f"{name}: ternary swap undefined at {f}")
        b32[f] = img
    b42 = {}
    for g in m.multimaps(TIGHT, 4):
        a, b, c, _ = m.dom(g)
        img = v.safe_subst(inv.prime[inv.prime[g]], 1, b32.get(theta3(m, cert, a, b, c)))
        if img is None:
            raise NoSolution(f"{name}: quaternary swap (slots 2,3) undefined at {g}")
        b42[g] = img
    b43 = {}
    for g in m.multimaps(TIGHT, 4):
        a, b, _, _ = m.dom(g)
        img = v.safe_subst(b32.get(inv.prime[g]), 1, cert.theta(a, b))
        if img is None:
            raise NoSolution(f"{name}: quaternary swap (slots 3,4) undefined at {g}")
        b43[g] = img
    return ShortBraiding(name, b32, b42, b43)


def derive_beta2(m: ShortSkewMulticategory, cert: Certificate,
                 beta: ShortBraiding) -> dict[str, str]:
    """The induced swap on loose binary maps: abstract the unit, swap with
    b32, and substitute the unit back."""
    inv = inverses(cert)
    out = {}
    for r in m.multimaps(LOOSE, 2):
        swapped = beta.b32.get(inv.star[r])
        img = m.safe_subst(swapped, 1, cert.nullary.via)
        if img is None:
            raise NoSolution(f"{beta.name}: unit swap undefined at {r}")
        out[r] = img
    return out


def _setup(key):
    sk, beta = catalogue_short_braidings()[key]
    cert = certify(sk)
    return sk, beta, cert, ks_object(sk, cert)


def test_short_braidings_validate_and_are_symmetries():
    for key, (sk, beta) in catalogue_short_braidings().items():
        r = validate_short_braiding(sk, beta)
        assert r.ok, (key, r.failures[:4])
        assert r.counts["braid-yang-baxter"] > 0
        assert check_short_symmetry(sk, beta)


def test_braiding_axiom_mutation_is_caught():
    sk, beta = catalogue_short_braidings()["klein.beta"]
    b42 = dict(beta.b42)
    key = sorted(b42)[0]
    pool = [f for f in sk.multimaps(TIGHT, 4) if f != b42[key]]
    b42[key] = pool[0]
    bad = ShortBraiding(beta.name, dict(beta.b32), b42, dict(beta.b43))
    r = validate_short_braiding(sk, bad)
    assert not r.ok
    assert any(f.family == "b42-typing" for f in r.failures)
    # the edited entry is the image of a ternary-into-binary substitution,
    # so the corresponding compatibility axiom instance fails as well
    assert any(f.family == "braid-3-in-2-slot1" for f in r.failures)


def test_transport_forward_backward_identity():
    for key in ("z2.beta", "klein.beta", "terminal.beta"):
        sk, beta, cert, mon = _setup(key)
        s = s_from_short_braiding(sk, cert, beta)
        assert validate_braiding(mon, s).ok
        assert check_symmetry(mon, s)  # symmetry transfers forward
        beta2 = classifier_short_braiding_from_s(sk, cert, s)
        assert short_braidings_equal(beta, beta2)
        s2 = s_from_short_braiding(sk, cert, beta2)
        assert braidings_equal(s, s2)
        assert check_short_symmetry(sk, beta2)  # and backward


def test_non_braidable_mutation_raises():
    sk, beta, cert, mon = _setup("klein.beta")
    b32 = dict(beta.b32)
    # send one universal ternary image somewhere unrelated
    key = theta3(sk, cert, "01", "10", "11")
    pool = sorted(f for f in sk.multimaps(TIGHT, 3) if f != b32[key])
    b32[key] = pool[0]
    bad = ShortBraiding(beta.name, b32, dict(beta.b42), dict(beta.b43))
    with pytest.raises(NoSolution):
        s_from_short_braiding(sk, cert, bad)


def test_derived_binary_swap():
    sk, beta, cert, _ = _setup("z2.beta")
    table = derive_beta2(sk, cert, beta)
    for r, img in table.items():
        _, dom, cod, _ = sk.info(r)
        assert sk.info(img)[1] == (dom[1], dom[0])
        assert sk.info(img)[2] == cod


def test_braided_functor_lemma_and_transport():
    data = {k.split(".")[0]: _setup(k) for k in ("z2.beta", "klein.beta", "terminal.beta")}
    ms = catalogue_morphisms()
    cases = [("id", identity_skew_morphism(data["klein"][0]), "klein", "klein")]
    for mname, s, t in (("klein-swap", "klein", "klein"),
                        ("z2-into-klein", "z2", "klein"),
                        ("z2-collapse", "z2", "terminal")):
        cases.append((mname, embed_multi_morphism(ms[mname], data[s][0], data[t][0]), s, t))
    for label, F, s, t in cases:
        r = validate_braided_transport_functor(
            F, data[s][1], data[t][1], data[s][2], data[t][2],
            data[s][3], data[t][3])
        assert r.ok, (label, r.failures[:4])
        assert r.counts["preserve-b32"] > 0
        assert r.counts["preserve-b42"] > 0 and r.counts["preserve-b43"] > 0


def test_broken_functor_fails_ternary_preservation():
    sk, beta, cert, mon = _setup("klein.beta")
    F = identity_skew_morphism(sk)
    tight = {n: dict(F.tight_maps[n]) for n in (2, 3, 4)}
    key = sorted(tight[3])[0]
    pool = sorted(f for f in sk.multimaps(TIGHT, 3) if f != tight[3][key])
    tight[3][key] = pool[0]
    bad = dataclasses.replace(F, tight_maps=tight)
    r = validate_braided_transport_functor(bad, beta, beta, cert, cert, mon, mon)
    assert not r.ok


def thin_braiding(x: SkewMonCategory) -> Braiding:
    """The braiding of a thin skew monoidal category whose (pa)b and (pb)a
    are isomorphic: each component, and each inverse, the unique map of its
    type."""
    objs, t = x.base.objects, x.t

    def the(a: str, b: str) -> str:
        return x.base.hom(a, b)[0]
    triples = list(itertools.product(objs, repeat=3))
    return Braiding(x.name + ".sym",
                    {(p, a, b): the(t(t(p, a), b), t(t(p, b), a)) for p, a, b in triples},
                    {(p, a, b): the(t(t(p, b), a), t(t(p, a), b)) for p, a, b in triples})


def _braided_file(x: SkewMonCategory, s: Braiding, tmp_path) -> str:
    path = tmp_path / f"{x.name}.braiding.txt"
    path.write_text(serialize(StructureFile("braiding", x.name, (x, s))), encoding="utf-8")
    return str(path)


def test_braiding_transport_on_a_non_skeletal_base(tmp_path, capsys):
    """ch2.abba.a, the tensor a.a = b.b = a, a.b = b.a = b with unit a on
    the indiscrete base, carries one braiding, each component the unique
    map of its type. Its rebuilt category has other tensor objects, so s
    is no braiding on it, and the classifier inverse, which reads s as one,
    finds no swap. roundtrip checks the braiding the induced swap tables
    give the rebuilt category against s through the comparison, and
    construct --which braiding-backward induces swap tables that
    validate."""
    x = indiscrete_census()[0]["ch2.abba.a"]
    s = thin_braiding(x)
    m = induce_short_skew(x)
    with pytest.raises(NoSolution):
        classifier_short_braiding_from_s(m, certify(m), s)
    path = _braided_file(x, s, tmp_path)
    assert cli.main(["roundtrip", path]) == cli.EXIT_PASS
    assert "checked braiding-roundtrip = 1\n" in capsys.readouterr().out
    out = tmp_path / "back.txt"
    assert cli.main(["construct", path, "--which", "braiding-backward",
                     "--out", str(out)]) == cli.EXIT_PASS
    capsys.readouterr()
    assert cli.main(["validate", str(out)]) == cli.EXIT_PASS
    assert "checked braiding-b32-nat" in capsys.readouterr().out


def _braided_roundtrip_holds(x: SkewMonCategory, s: Braiding) -> None:
    """(x, s) validates, its braided roundtrip passes, and the swap tables s
    induces on the induced structure validate."""
    assert validate_skew_monoidal(x).ok and validate_braiding(x, s).ok, x.name
    report = skew_monoidal_roundtrip(x, s)
    assert report.ok and report.counts["braiding-roundtrip"] == 1, x.name
    m = induce_short_skew(x)
    assert validate_short_skew(m).ok, x.name
    r = validate_short_braiding(m, short_braiding_from_s(m, x, s))
    assert r.ok, (x.name, r.failures[:2])


def test_braided_census_on_the_indiscrete_base():
    """Each of the 32 thin skew monoidal categories on indiscrete2() carries
    one braiding, and each braided roundtrip passes, though most rebuild
    other tensor objects than their input's."""
    mons = indiscrete_census()[0]
    assert len(mons) == 32
    for x in mons.values():
        _braided_roundtrip_holds(x, thin_braiding(x))


def preorder3(name: str, le: list[tuple[str, str]]) -> FinCategory:
    """The preorder on the objects a, b, c generated by le (transitive
    already): a morphism xy for each x <= y, 1_x for x <= x."""
    objs = ("a", "b", "c")
    le = [(x, x) for x in objs] + le
    mor = {(x, y): f"1_{x}" if x == y else x + y for x, y in le}
    return FinCategory(name, objs, {xy: (f,) for xy, f in mor.items()},
                       {(mor[y, z], mor[x, y]): mor[x, z]
                        for x, y, z in itertools.product(objs, repeat=3)
                        if (x, y) in mor and (y, z) in mor},
                       {x: mor[x, x] for x in objs})


def braided_sample(base: FinCategory, rng: random.Random, draws: int
                   ) -> list[SkewMonCategory]:
    """The thin braided skew monoidal categories among `draws` random tensor
    tables and units on a thin base: those whose tensor is monotone, with a
    map for each alpha, lambda and rho, and with (pa)b and (pb)a isomorphic,
    which on a thin base is all their axioms ask."""
    objs, pairs = base.objects, list(itertools.product(base.objects, repeat=2))
    triples = list(itertools.product(objs, repeat=3))

    def le(a: str, b: str) -> bool:
        return (a, b) in base.homs
    out = []
    for _ in range(draws):
        values, unit = [rng.choice(objs) for _ in pairs], rng.choice(objs)
        t = dict(zip(pairs, values))
        if (all(le(t[a, b], t[a2, b2]) for a, a2 in pairs if le(a, a2)
                for b, b2 in pairs if le(b, b2))
                and all(le(t[t[a, b], c], t[a, t[b, c]]) for a, b, c in triples)
                and all(le(t[unit, a], a) and le(a, t[a, unit]) for a in objs)
                and all(le(t[t[p, a], b], t[t[p, b], a]) for p, a, b in triples)):
            out.append(thin_skew_monoidal(f"{base.name}.{''.join(values)}.{unit}", base,
                                          lambda a, b, t=t: t[a, b], unit))
    return out


# The three preorders on a, b, c in which a and b are isomorphic and c is
# not: c beside them, above them or below them. The fourth non-skeletal
# preorder on three objects, the indiscrete one, makes every tensor table
# braided; indiscrete2() stands for it.
PREORDERS3 = (preorder3("ab+c", [("a", "b"), ("b", "a")]),
              preorder3("ab<c", [("a", "b"), ("b", "a"), ("a", "c"), ("b", "c")]),
              preorder3("c<ab", [("a", "b"), ("b", "a"), ("c", "a"), ("c", "b")]))


def test_braided_sample_on_three_object_preorders():
    """Every braided structure among 1000 seeded draws (seed 5) per preorder
    of PREORDERS3 passes its braided roundtrip: 23 structures, in about two
    seconds. The draws are far fewer than a census (3^10 tables and units
    per base) to keep tier-1 short; 4000 draws per base give 72 braided
    structures, which pass too."""
    rng = random.Random(5)
    found = [x for base in PREORDERS3 for x in braided_sample(base, rng, 1000)]
    assert len(found) >= 10
    for x in found:
        _braided_roundtrip_holds(x, thin_braiding(x))


@pytest.mark.parametrize("which", ["ch2.abba.a", "bz2"])
def test_a_wrong_rebuilt_braiding_is_caught(monkeypatch, capsys, tmp_path, which):
    """roundtrip refuses, with exit 3 naming the braided-functor instance,
    every edit of one component of the braiding the induced swap tables give
    the rebuilt category: each other morphism at each triple on ch2.abba.a,
    where every such edit is mistyped, and the other element of Z/2 on bz2,
    where it is typed."""
    if which == "bz2":
        x = bz2_category()
        s = Braiding("bz2.sym", {("o", "o", "o"): "e"}, {("o", "o", "o"): "e"})
    else:
        x = indiscrete_census()[0][which]
        s = thin_braiding(x)
    path = _braided_file(x, s, tmp_path)
    real, m = braiding.s_from_short_braiding, induce_short_skew(x)
    back = real(m, certify(m), short_braiding_from_s(m, x, s))
    edits = [(key, other) for key, value in back.s.items()
             for other in x.base.morphisms() if other != value]
    assert len(edits) == (24 if which == "ch2.abba.a" else 1)
    for key, other in edits:
        def edited(m, cert, beta, name=None, key=key, other=other):
            back = real(m, cert, beta, name)
            return dataclasses.replace(back, s={**back.s, key: other})
        monkeypatch.setattr(braiding, "s_from_short_braiding", edited)
        assert cli.main(["roundtrip", path]) == cli.EXIT_INTERNAL, key
        err = capsys.readouterr().err
        assert f": fail braided-functor @ {','.join(key)} : " in err, (key, err)


def test_induced_swap_tables_match_the_classifier_inverse():
    """Where the rebuilt category is the input, as for the catalogue
    symmetries and those of Z/2..Z/4, the swap tables induced straight off
    s are those the classifier inverse reads off s."""
    cases = list(catalogue_braidings(catalogue_skew_monoidals()).values())
    for n in (2, 3, 4):
        cases += [sf.payload for sf in _cyclic_files(n) if sf.kind == "braiding"]
    assert len(cases) == 6
    for x, s in cases:
        m = induce_short_skew(x)
        assert short_braidings_equal(short_braiding_from_s(m, x, s),
                                     classifier_short_braiding_from_s(m, certify(m), s)), x.name
