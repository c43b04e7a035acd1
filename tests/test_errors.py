"""Exception hierarchy contract."""

import pytest

from repro import errors


def test_all_errors_derive_from_repro_error():
    for name in dir(errors):
        obj = getattr(errors, name)
        if isinstance(obj, type) and issubclass(obj, Exception):
            assert issubclass(obj, errors.ReproError) or obj is errors.ReproError


def test_subsystem_grouping():
    assert issubclass(errors.DramCommandError, errors.DramError)
    assert issubclass(errors.DramAddressError, errors.DramError)
    assert issubclass(errors.CommunicationError, errors.SoftMCError)
    assert issubclass(errors.PowerSupplyError, errors.SoftMCError)
    assert issubclass(errors.ProgramError, errors.SoftMCError)
    assert issubclass(errors.NetlistError, errors.SpiceError)
    assert issubclass(errors.ConvergenceError, errors.SpiceError)
    assert issubclass(errors.UncorrectableError, errors.EccError)


def test_catching_base_catches_subsystem():
    with pytest.raises(errors.ReproError):
        raise errors.CommunicationError("module mute")
