"""Shared fixtures."""
import pytest

import gstower.gs_check
import gstower.series
from gstower.certify import check_certificate


@pytest.fixture(scope="module")
def holds_are_certified(request):
    """Replay the certificate of every HOLDS verdict that the decider
    hands to the requesting module, directly or through gs_check."""
    decide = gstower.series.positive_on_open_unit_interval

    def certified(f):
        report = decide(f)
        if report.holds:
            check_certificate(f, report.certificate)
        return report

    with pytest.MonkeyPatch.context() as mp:
        for module in (gstower.series, gstower.gs_check, request.module):
            if getattr(module, "positive_on_open_unit_interval", None) is decide:
                mp.setattr(module, "positive_on_open_unit_interval", certified)
        yield


@pytest.fixture
def scan_calls(monkeypatch):
    """The polynomials handed to the small-denominator scan, call by call."""
    calls = []
    scan = gstower.series._small_denominator_scan
    monkeypatch.setattr(gstower.series, "_small_denominator_scan",
                        lambda h: calls.append(h) or scan(h))
    return calls
