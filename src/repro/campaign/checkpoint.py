"""Append-only campaign checkpoints: kill a run, resume at the next round.

The store is a JSONL file. Line one is a header binding the checkpoint
to its scenario (a canonical digest of the full config, so a resume
against a different world fails loudly instead of silently mixing
rounds). Every later line records one completed round: its
:class:`~repro.campaign.fragment.RoundFragment` in wire form plus a
chained SHA-256 digest over every fragment so far — the digest a
resumed campaign ends with is therefore byte-for-byte the digest an
uninterrupted run produces, which ``BENCH_LONGITUDINAL.json`` gates on.

Writes append one line per round and flush+fsync before returning, so
a kill leaves at worst one truncated trailing line; loading tolerates
exactly that (the interrupted round simply reruns on resume).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from typing import List, Tuple

from repro.campaign.fragment import RoundFragment
from repro.errors import CampaignError

CHECKPOINT_FORMAT = "repro-campaign-checkpoint"
CHECKPOINT_VERSION = 1


def config_digest(config) -> str:
    """Canonical digest of a ScenarioConfig (sorted-key JSON)."""
    payload = json.dumps(dataclasses.asdict(config), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def chain_digest(previous: str, wire) -> str:
    """The running campaign digest after one more fragment.

    Chained like a hash list: H(previous_hex || canonical_json(wire)).
    Any divergence in any earlier round changes every later digest.
    """
    payload = json.dumps(list(wire), separators=(",", ":"))
    return hashlib.sha256(
        (previous + payload).encode("utf-8")).hexdigest()


class CheckpointStore:
    """One campaign's checkpoint file."""

    def __init__(self, path: str):
        self.path = path

    def start(self, config, total_rounds: int) -> None:
        """Begin a fresh checkpoint (truncates any previous one)."""
        header = {
            "format": CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION,
            "seed": config.seed,
            "config_digest": config_digest(config),
            "rounds": total_rounds,
        }
        with open(self.path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def append(self, fragment: RoundFragment, digest: str) -> None:
        """Record one completed round (flushed and fsynced)."""
        line = json.dumps({
            "round": fragment.round_index,
            "digest": digest,
            "fragment": list(fragment.to_wire()),
        }, sort_keys=True)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def load(self, config) -> Tuple[List[RoundFragment], str]:
        """Completed fragments plus the running digest, for resume.

        A missing file means a fresh start (``([], "")``). A header
        written for a different config, a header or round line that is
        not a JSON object, a broken digest chain, or out-of-order rounds
        raise :class:`CampaignError`; a truncated *trailing* line — the
        signature of a kill mid-append — is dropped silently, even when
        what survived happens to parse as a JSON non-object.
        """
        if not os.path.exists(self.path):
            return [], ""
        with open(self.path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        if not lines:
            return [], ""
        header = self._parse_header(lines[0], config)
        fragments: List[RoundFragment] = []
        digest = ""
        for position, line in enumerate(lines[1:], start=2):
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                entry = None
            if not isinstance(entry, dict):
                if position == len(lines):
                    break  # torn trailing write; the round reruns
                raise CampaignError(
                    f"{self.path}:{position}: corrupt checkpoint line "
                    "(not a JSON object, and not the trailing line)")
            fragment = RoundFragment.from_wire(entry.get("fragment"))
            if fragment.round_index != entry.get("round"):
                raise CampaignError(
                    f"{self.path}:{position}: round field "
                    f"{entry.get('round')!r} does not match fragment "
                    f"round {fragment.round_index}")
            expected = len(fragments)
            if fragment.round_index != expected:
                raise CampaignError(
                    f"{self.path}:{position}: expected round {expected}, "
                    f"found round {fragment.round_index}")
            digest = chain_digest(digest, fragment.to_wire())
            if digest != entry.get("digest"):
                raise CampaignError(
                    f"{self.path}:{position}: digest chain mismatch — "
                    "the checkpoint was edited or mixes campaigns")
            fragments.append(fragment)
        if len(fragments) > header["rounds"]:
            raise CampaignError(
                f"{self.path}: holds {len(fragments)} rounds but its "
                f"header declares {header['rounds']}")
        return fragments, digest

    def _parse_header(self, line: str, config) -> dict:
        try:
            header = json.loads(line)
        except json.JSONDecodeError:
            header = None
        if not isinstance(header, dict):
            raise CampaignError(
                f"{self.path}: corrupt checkpoint header "
                "(not a JSON object)")
        if header.get("format") != CHECKPOINT_FORMAT:
            raise CampaignError(
                f"{self.path}: not a campaign checkpoint "
                f"(format {header.get('format')!r})")
        if header.get("version") != CHECKPOINT_VERSION:
            raise CampaignError(
                f"{self.path}: checkpoint version "
                f"{header.get('version')!r} is not readable by this "
                f"build (version {CHECKPOINT_VERSION})")
        if header.get("config_digest") != config_digest(config):
            raise CampaignError(
                f"{self.path}: checkpoint was written for a different "
                "scenario config; refusing to mix campaigns")
        return header


__all__ = [
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_VERSION",
    "CheckpointStore",
    "chain_digest",
    "config_digest",
]
