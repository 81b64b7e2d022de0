"""Deliberately naive reference models for differential tests.

Each model re-implements one simulator component in the most obvious
way (linear scans, no indexes, no caching) so that a test can replay
the same random operations on both and compare every outcome.
"""
