"""Shared --engine / --tier options on the experiment runner."""

from __future__ import annotations

import pytest

from repro.experiments.runner import build_parser, main


def test_engine_choices():
    parser = build_parser()
    args = parser.parse_args(["scn-zoo", "--engine", "event"])
    assert args.engine == "event"
    with pytest.raises(SystemExit):
        parser.parse_args(["scn-zoo", "--engine", "warp"])


def test_tier_choices():
    parser = build_parser()
    args = parser.parse_args(["scn-zoo", "--tier", "numpy"])
    assert args.tier == "numpy"
    with pytest.raises(SystemExit):
        parser.parse_args(["scn-zoo", "--tier", "gpu"])


def test_engine_flag_reaches_figure_lookup(capsys):
    # ERROR (unknown figure), not a usage exit: flag handling passed and
    # the runner proceeded to figure lookup.
    assert main(["bogus-fig", "--engine", "event"]) == 2
    assert "ERROR" in capsys.readouterr().err


def test_event_engine_alias_is_gone():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["scn-zoo", "--event-engine"])
