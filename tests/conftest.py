"""Fixtures shared by the test modules."""

import random

import pytest


class NoClockRandom(random.Random):
    """A generator whose event clock fails the test: a run with a horizon it
    can never reach fails instead of hanging."""

    def expovariate(self, rate):
        raise AssertionError("a run with an unreachable horizon started")


@pytest.fixture
def no_clock_random():
    """The NoClockRandom class, for tests that patch a module's generator."""
    return NoClockRandom
