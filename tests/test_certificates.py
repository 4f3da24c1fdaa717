import math

from hypothesis import given
from hypothesis import strategies as st

from froth1d.certificates import Certificate, fmt17

# every float, the infinities and NaN included
floats = st.floats(allow_nan=True, allow_infinity=True)


@given(lhs=floats, rhs=floats, upper=st.booleans(), tol=floats)
def test_verdict_follows_from_the_inequality(lhs, rhs, upper, tol):
    cert = Certificate("check", lhs, rhs, upper=upper, tol=tol)
    slack = rhs - lhs if upper else lhs - rhs
    assert cert.slack == slack or (math.isnan(cert.slack) and math.isnan(slack))
    assert cert.passed == (slack >= -tol)
    if math.isnan(lhs) or math.isnan(rhs) or math.isnan(tol):
        assert not cert.passed
    if tol == 0.0 and not math.isnan(slack):
        # held exactly: the inequality itself
        assert cert.passed == (lhs <= rhs if upper else lhs >= rhs)
    record = cert.to_dict()
    assert record["pass"] is cert.passed
    assert record["slack"] == fmt17(slack)
    assert (record["lhs"], record["rhs"]) == (fmt17(lhs), fmt17(rhs))
