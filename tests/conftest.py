import pytest

from merolab import CriterionParams, RadiusGrid, build_profile, check_main, corpus_function


@pytest.fixture(scope="session")
def expz():
    return corpus_function("expz")


@pytest.fixture(scope="session")
def tanz():
    return corpus_function("tanz")


@pytest.fixture(scope="session")
def zsq():
    return corpus_function("zsq")


@pytest.fixture(scope="session")
def invz():
    return corpus_function("invz")


@pytest.fixture(scope="session")
def fatou():
    return corpus_function("fatou")


@pytest.fixture(scope="session")
def lacunary2():
    return corpus_function("lacunary2")


@pytest.fixture(scope="session")
def canprod4():
    return corpus_function("canprod4")


@pytest.fixture(scope="session")
def tan_profile(tanz):
    return build_profile(tanz, RadiusGrid(1.0, 100.0))


@pytest.fixture(scope="session")
def exp_profile(expz):
    return build_profile(expz, RadiusGrid(1.0, 100.0))


@pytest.fixture(scope="session")
def canprod_profile(canprod4):
    # seven decades; enough span for a stable order/deficiency fit
    return build_profile(canprod4, RadiusGrid(1.0, 1.0e7, 2.0**0.25))


@pytest.fixture(scope="session")
def canprod_main(canprod4):
    # the slowest shared verdict: main growth criterion on [10, 1000]
    profile = build_profile(canprod4, RadiusGrid(10.0, 1000.0))
    return check_main(profile, CriterionParams(0.3, 2.0, 1.5))


@pytest.fixture(scope="session")
def canprod_deep_profile(canprod4):
    # the third chain link only crosses over near r ~ 1e13
    return build_profile(canprod4, RadiusGrid(1.0e6, 2.0e13, 2.0**0.5))
