import random

import pytest

from covlat import (
    CapExceededError,
    Certificate,
    EnumerationBudget,
    InitialContinuityDefectError,
    default_certificates,
    oracle,
)
from covlat.oracle import (
    all_relations,
    certify_initial_lift,
    certify_morphism_shortcuts,
    certify_saturation,
    certify_suplattice_roundtrip,
    enumerate_covers,
    enumerate_closure_tables,
    enumerate_interior_tables,
    naive_saturate,
    overt_via_positive_part,
    positive_elements_definitional,
    random_cover,
    standard_suplattices,
)


class TestGenerators:
    def test_enumerate_covers_is_deterministic(self):
        first = [c.axioms.pairs for c in enumerate_covers(1)]
        second = [c.axioms.pairs for c in enumerate_covers(1)]
        assert first == second
        # size 0 gives one cover, size 1 has 2 candidate axioms -> 4 sets
        assert len(first) == 1 + 4

    def test_enumerate_covers_refuses_large_bases(self):
        with pytest.raises(CapExceededError):
            list(enumerate_covers(4))

    def test_all_relations_count(self, free2):
        rels = list(all_relations(free2.base, free2.base))
        assert len(rels) == 16

    def test_random_cover_is_seed_stable(self):
        a = random_cover(random.Random(3), 4).axioms.pairs
        b = random_cover(random.Random(3), 4).axioms.pairs
        assert a == b

    def test_operator_enumerations_at_size_two(self, free2):
        assert len(list(enumerate_closure_tables(free2))) == 4
        assert len(list(enumerate_interior_tables(free2))) == 4


class TestReferenceImplementations:
    def test_naive_saturate_fixpoint(self, chain2):
        assert naive_saturate(chain2.axioms, 2) == 3
        assert naive_saturate(chain2.axioms, 1) == 1

    def test_positive_elements_definitional(self, free2):
        assert positive_elements_definitional(free2) == free2.pos()

    def test_overt_cross_check(self, m3_cover, free2, chain2):
        for c in (m3_cover, free2, chain2):
            assert overt_via_positive_part(c) == c.is_overt().passed


class TestCertificates:
    def test_default_suite_all_pass(self):
        budget = EnumerationBudget(samples=10)
        certs = default_certificates(budget)
        assert len(certs) == 6
        for c in certs:
            assert c.passed, (c.claim_id, c.witness)

    def test_reproducible_bit_for_bit(self):
        budget = EnumerationBudget(samples=5, seed=42)

        def strip(cert: Certificate) -> dict:
            js = cert.to_json()
            js.pop("runtime_s")
            return js

        first = [strip(c) for c in default_certificates(budget)]
        second = [strip(c) for c in default_certificates(budget)]
        assert first == second

    def test_different_seed_changes_sampling(self):
        a = certify_saturation(EnumerationBudget(samples=5, seed=1))
        b = certify_saturation(EnumerationBudget(samples=5, seed=2))
        assert a.passed and b.passed
        assert a.bounds != b.bounds

    def test_saturation_certificate(self):
        cert = certify_saturation(EnumerationBudget(samples=20))
        assert cert.passed and cert.instances == 20

    def test_morphism_shortcut_certificate(self):
        cert = certify_morphism_shortcuts(EnumerationBudget(samples=10))
        assert cert.passed and cert.witness is None

    def test_initial_lift_certificate(self):
        cert = certify_initial_lift(EnumerationBudget(samples=10))
        assert cert.passed, cert.witness

    def test_certificate_without_instances_fails(self):
        # at seed 0 a single sample yields no instance to test the lift on
        cert = certify_initial_lift(EnumerationBudget(samples=1, seed=0))
        assert cert.instances == 0
        assert not cert.passed and cert.witness == {"claim": "no instances checked"}

    def test_bounds_name_only_what_is_used(self):
        assert set(EnumerationBudget().to_json()) == {"max_cover_size", "samples", "seed"}

    def test_budget_defaults_keywords_and_immutability(self):
        assert EnumerationBudget().to_json() == {"max_cover_size": 3, "samples": 30, "seed": 0}
        budget = EnumerationBudget(seed=4, max_cover_size=2)
        assert (budget.max_cover_size, budget.samples, budget.seed) == (2, 30, 4)
        with pytest.raises(AttributeError):
            budget.seed = 5
        assert budget.seed == 4

    def test_certificate_defaults_and_keywords(self):
        cert = Certificate("c", {}, passed=True, witness=None, instances=2)
        assert (cert.runtime_s, cert.skipped) == (0.0, 0)
        cert.skipped = 3
        assert cert.to_json()["skipped"] == 3

    def test_certificate_json_shape(self):
        cert = certify_saturation(EnumerationBudget(samples=1))
        js = cert.to_json()
        assert set(js) == {
            "claim", "bounds", "pass", "witness", "instances", "skipped", "runtime_s"
        }
        assert js["skipped"] == 0

    def test_initial_lift_counts_skipped_samples(self, monkeypatch):
        # at seed 0 the one sample has no usable morphism and is skipped
        cert = certify_initial_lift(EnumerationBudget(samples=1, seed=0))
        assert cert.skipped == 1 and cert.to_json()["skipped"] == 1
        assert certify_initial_lift(EnumerationBudget(samples=3, seed=1)).skipped == 0

        def defect(m, c_tgt):
            raise InitialContinuityDefectError(m.source_cover.base.empty())

        monkeypatch.setattr(oracle, "initial_closure", defect)
        cert = certify_initial_lift(EnumerationBudget(samples=3, seed=1))
        assert (cert.instances, cert.skipped, cert.passed) == (0, 3, False)


class TestSuplatticeRoundtrip:
    @pytest.mark.parametrize("name", ["chain2", "square", "m3"])
    def test_standard_lattices_pass(self, name):
        lat = standard_suplattices()[name]
        cert = certify_suplattice_roundtrip(lat, name)
        assert cert.passed, cert.witness

    def test_m3_lattice_has_five_elements(self):
        lat = standard_suplattices()["m3"]
        assert len(lat.base) == 5
