"""Assertion helper shared by the paper-claim tests."""


def pin(claim: str, expected, actual) -> None:
    """Assert one claim's exact value; a failure names the claim id and
    both values.  Floats from the analytic models are compared after
    rounding to four decimals."""
    if isinstance(actual, float):
        actual = round(actual, 4)
    assert actual == expected, f"{claim}: expected {expected!r}, got {actual!r}"
