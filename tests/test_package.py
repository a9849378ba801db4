import amrsg


def test_every_public_name_resolves():
    for name in amrsg.__all__:
        assert getattr(amrsg, name) is not None, name


def test_test_only_names_are_not_public():
    assert "validate" not in amrsg.__all__
    assert not hasattr(amrsg, "validate")
