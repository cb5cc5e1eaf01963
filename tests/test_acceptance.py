"""The acceptance gate: ten criteria, one test each, every tolerance pinned.

Each test prints one line `ACCEPTANCE <n>: PASS <summary>` on success (and
asserts, so a failure shows up as a test failure with the reason)."""
import subprocess
import sys
import time

from childenv import child_env

from shortcat.braiding import (
    braidings_equal, check_short_symmetry, s_from_short_braiding,
    short_braiding_from_s, short_braidings_equal,
    validate_braided_transport_functor,
)
from shortcat.catalogue import (
    catalogue_braidings, catalogue_morphisms, catalogue_mutants,
    catalogue_short_braidings, catalogue_short_multis, catalogue_short_skews,
    catalogue_skew_closed, catalogue_skew_monoidals, validate_mutant,
)
from shortcat.classify import (
    certify, check_left_universal, check_representable, derived_classifiers,
    find_binary_classifier, find_closed_structure, find_nullary_classifier,
    sharp_laws, verify_units_left_universal,
)
from shortcat.shortmulti import validate_short_multicategory
from shortcat.shortskew import embed_multi_morphism, identity_skew_morphism, validate_short_skew
from shortcat.skewmon import (
    check_symmetry, classify_flavour, validate_braiding, validate_skew_closed,
    validate_skew_monoidal,
)
from shortcat.transport import (
    check_representable_iff_monoidal, k_morphism, k_morphism_inverse, k_object,
    lax_functor_equal, multi_morphism_equal, roundtrip_check, transport_closed,
    transport_closed_skew,
)


def _announce(n: int, summary: str) -> None:
    print(f"ACCEPTANCE {n}: PASS {summary}")


def test_criterion_1_positive_suite():
    start = time.monotonic()
    checked = 0
    for name, m in catalogue_short_multis().items():
        r = validate_short_multicategory(m)
        assert r.ok and r.total_checked() > 0, (name, r.failures[:3])
        checked += r.total_checked()
    for name, m in catalogue_short_skews().items():
        r = validate_short_skew(m)
        assert r.ok and r.total_checked() > 0, (name, r.failures[:3])
        checked += r.total_checked()
    for name, c in catalogue_skew_monoidals().items():
        r = validate_skew_monoidal(c)
        assert r.ok and r.total_checked() > 0, (name, r.failures[:3])
        assert all(v > 0 for k, v in r.counts.items()
                   if k in ("pentagon", "left-unit", "right-unit",
                            "middle-unit", "unit-unit")), name
        checked += r.total_checked()
    for name, (c, b) in catalogue_braidings(catalogue_skew_monoidals()).items():
        r = validate_braiding(c, b)
        assert r.ok and r.total_checked() > 0, name
        checked += r.total_checked()
    for name, (sk, beta) in catalogue_short_braidings().items():
        from shortcat.braiding import validate_short_braiding
        r = validate_short_braiding(sk, beta)
        assert r.ok and r.total_checked() > 0, name
        checked += r.total_checked()
    for name, c in catalogue_skew_closed().items():
        r = validate_skew_closed(c)
        assert r.ok and r.total_checked() > 0, name
        checked += r.total_checked()
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"positive suite took {elapsed:.2f}s"
    _announce(1, f"positive suite, {checked} instances in {elapsed:.2f}s")


def test_criterion_2_mutation_kill_suite():
    start = time.monotonic()
    mutants = catalogue_mutants()
    assert len(mutants) >= 50, f"only {len(mutants)} mutants"
    for mut in mutants:
        report = validate_mutant(mut)
        assert not report.ok, f"{mut.name} survived"
        assert report.has_failure(mut.family, mut.subjects), (
            f"{mut.name} failed elsewhere: {[f.key() for f in report.failures[:3]]}")
    # only mutants fail
    for name, m in catalogue_short_multis().items():
        assert validate_short_multicategory(m).ok, name
    for name, m in catalogue_short_skews().items():
        assert validate_short_skew(m).ok, name
    for name, c in catalogue_skew_monoidals().items():
        assert validate_skew_monoidal(c).ok, name
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"kill suite took {elapsed:.2f}s"
    _announce(2, f"{len(mutants)} mutants killed at their annotations in {elapsed:.2f}s")


def test_criterion_3_classifier_search():
    derived_records = 0
    for name in ("z2", "heyting2"):
        m = catalogue_short_multis()[name]
        for a in m.base.objects:
            for b in m.base.objects:
                cl = find_binary_classifier(m, a, b)
                assert cl is not None, (name, a, b)
                ok, failures = check_left_universal(m, cl)
                assert ok, (name, a, b, failures)
        nu = find_nullary_classifier(m)
        assert nu is not None, name
        ok, failures = check_left_universal(m, nu)
        assert ok, (name, failures)
        cert = certify(m)
        records = derived_classifiers(m, cert)  # raises on any discrepancy
        assert all(rec.instances > 0 for rec in records), name
        derived_records += len(records)
    _announce(3, f"classifiers on z2 and heyting2, {derived_records} derived records re-certified")


def test_criterion_4_representable_iff_monoidal():
    expected = {"z2": True, "klein": True, "poset2-second": False}
    for name, m in catalogue_short_multis().items():
        cert = certify(m)
        r = check_representable_iff_monoidal(m, cert)
        assert r.ok, (name, r.failures[:3])
        if name in expected:
            assert cert.representable is expected[name], name
            assert classify_flavour(k_object(m, cert)).monoidal is expected[name], name
    _announce(4, "representability and monoidality agree on every catalogue entry")


def test_criterion_5_closedness_transfer():
    for name, m in catalogue_short_multis().items():
        r = transport_closed(m, certify(m))
        assert r.ok, (name, r.failures[:3])
    for name, m in catalogue_short_skews().items():
        r = transport_closed_skew(m, certify(m))
        assert r.ok, (name, r.failures[:3])
    _announce(5, "closedness verdicts and derived evaluation maps agree everywhere")


def test_criterion_6_equivalence_roundtrips(tmp_path):
    for name, x in catalogue_skew_monoidals().items():
        assert roundtrip_check(x).ok, name
    assert roundtrip_check(catalogue_skew_closed()["heyting2.cl"]).ok
    # exit-code fidelity through the command line on both construction paths
    for generator, filename in (("z2", "z2.mon.skew-monoidal.txt"),
                                ("heyting-2", "heyting2.cl.skew-closed.txt")):
        subprocess.run([sys.executable, "-m", "shortcat.cli", "catalogue",
                        generator, "--out", str(tmp_path)],
                       capture_output=True, check=True, env=child_env())
        out = subprocess.run([sys.executable, "-m", "shortcat.cli", "roundtrip",
                              str(tmp_path / filename)], capture_output=True, env=child_env())
        assert out.returncode == 0, filename
    ms = catalogue_short_multis()
    certs = {name: certify(m) for name, m in ms.items()}
    mons = {name: k_object(m, certs[name]) for name, m in ms.items()}
    count = 0
    for name, F in catalogue_morphisms().items():
        cs, ct = certs[F.source.name], certs[F.target.name]
        t = k_morphism(F, cs, ct, mons[F.source.name], mons[F.target.name])
        back = k_morphism_inverse(t, cs, ct)
        assert multi_morphism_equal(back, F), name
        t2 = k_morphism(back, cs, ct, mons[F.source.name], mons[F.target.name])
        assert lax_functor_equal(t2, t), name
        count += 1
    assert count >= 10
    _announce(6, f"structure roundtrips plus {count} morphism-transport roundtrips")


def test_criterion_7_braiding_bijection():
    data = {}
    for key in ("z2.beta", "klein.beta", "terminal.beta"):
        sk, beta = catalogue_short_braidings()[key]
        cert = certify(sk)
        from shortcat.transport import ks_object
        data[key.split(".")[0]] = (sk, beta, cert, ks_object(sk, cert))
    for label in ("z2", "klein"):
        sk, beta, cert, mon = data[label]
        s = s_from_short_braiding(sk, cert, beta)
        assert validate_braiding(mon, s).ok, label
        assert check_symmetry(mon, s) == check_short_symmetry(sk, beta)
        beta_back = short_braiding_from_s(sk, cert, s)
        assert short_braidings_equal(beta, beta_back), label
        assert braidings_equal(s, s_from_short_braiding(sk, cert, beta_back)), label
    morphisms = [("id[klein]", identity_skew_morphism(data["klein"][0]), "klein", "klein")]
    ms = catalogue_morphisms()
    for mname, s_key, t_key in (("klein-swap", "klein", "klein"),
                                ("z2-into-klein", "z2", "klein"),
                                ("z2-collapse", "z2", "terminal")):
        morphisms.append((mname, embed_multi_morphism(
            ms[mname], data[s_key][0], data[t_key][0]), s_key, t_key))
    for label, F, s_key, t_key in morphisms:
        r = validate_braided_transport_functor(
            F, data[s_key][1], data[t_key][1], data[s_key][2], data[t_key][2],
            data[s_key][3], data[t_key][3])
        assert r.ok, (label, r.failures[:3])
        assert r.counts["preserve-b42"] > 0 and r.counts["preserve-b43"] > 0
    _announce(7, f"braiding bijections on z2 and klein, {len(morphisms)} braided morphisms")


def test_criterion_8_sharp_laws_and_units():
    instances = 0
    for name in ("heyting2", "z2"):
        m = catalogue_short_multis()[name]
        r = sharp_laws(m)
        assert r.ok, (name, r.failures[:3])
        instances += r.total_checked()
        r = verify_units_left_universal(m)
        assert r.ok, (name, r.failures[:3])
    _announce(8, f"currying laws over {instances} instances; unit left universality confirmed")


def test_criterion_9_biclosed_oracle():
    from shortcat.transport import biclosed_subst_check
    pairs = 0
    for name in ("z2", "heyting2"):
        r = biclosed_subst_check(catalogue_short_multis()[name])
        assert r.ok, (name, r.failures[:3])
        assert not r.failures
        pairs += r.total_checked()
    _announce(9, f"stored substitution equals the curried route on {pairs} binary pairs")


def test_criterion_10_determinism(tmp_path):
    def run(*args):
        out = subprocess.run([sys.executable, "-m", "shortcat.cli", *args],
                             capture_output=True, text=True, env=child_env())
        assert out.returncode == 0, out.stderr
        return out

    gen_dir = tmp_path / "files"
    for generator in ("terminal", "z2", "z3", "klein-four", "poset-skew-second",
                      "poset-skew-first", "heyting-2"):
        run("catalogue", generator, "--out", str(gen_dir))
    files = sorted(gen_dir.glob("*.txt"))
    assert files
    compared = 0
    for path in files:
        r1 = tmp_path / (path.stem + ".r1")
        r2 = tmp_path / (path.stem + ".r2")
        run("validate", str(path), "--jobs", "1", "--report", str(r1))
        run("validate", str(path), "--jobs", "3", "--report", str(r2))
        assert r1.read_bytes() == r2.read_bytes(), path.name
        compared += 1
    _announce(10, f"byte-identical reports across --jobs on {compared} files")
