import pytest

from ringlab import checks, compile_text, compute_bundle


# every ring the tests use that keeps a basis (validation decided every
# triple and the bit generators reach every element), the cap rings last
BASIS_RINGS = (
    "z(128)",
    "group(z(2),q8)",
    "m(2,z(4))",
    "t(2,z(8))",
    "m(2,gf(8))",
    "t(2,z(16))",
    "m(2,z(8))",
    "group(z(2),c(12))",
)


@pytest.fixture(params=BASIS_RINGS)
def basis_text(request):
    """The text of each ring in `BASIS_RINGS`, one test per ring."""
    return request.param


@pytest.fixture(scope="session")
def suite_report():
    """One full run of the default corpus, shared by the suite-level tests."""
    return checks.run_suite()


@pytest.fixture(scope="session")
def corpus_bundles():
    """(text, ring, bundle) for every default-corpus ring."""
    out = []
    for text in checks.default_corpus():
        ring = compile_text(text)
        out.append((text, ring, compute_bundle(ring)))
    return out


def results_for(report, check_id):
    for entry in report.checks:
        if entry["id"] == check_id:
            return entry["results"]
    raise KeyError(check_id)
