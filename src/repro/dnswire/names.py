"""Domain names: parsing, validation and manipulation.

A :class:`DnsName` is an immutable sequence of labels, always handled in
its fully-qualified form internally. Comparison and hashing are
case-insensitive, as required by RFC 1035 section 2.3.3.
"""

from __future__ import annotations

from typing import Iterator, Tuple

from repro.errors import NameError_

MAX_LABEL_LENGTH = 63
MAX_NAME_LENGTH = 255


def _validate_label(label: bytes) -> None:
    if not label:
        raise NameError_("empty label inside a domain name")
    if len(label) > MAX_LABEL_LENGTH:
        raise NameError_(f"label exceeds {MAX_LABEL_LENGTH} octets: {label!r}")


class DnsName:
    """An immutable, case-insensitive domain name.

    >>> name = DnsName.from_text("DNS.Example.COM")
    >>> name == DnsName.from_text("dns.example.com.")
    True
    >>> name.parent().to_text()
    'example.com.'
    """

    __slots__ = ("_labels", "_folded", "_text", "_wire")

    #: Parse memo for :meth:`from_text`: the simulation builds the same
    #: hostnames over and over (probe origins, provider names), so the
    #: parsed result is interned per exact input string. Bounded: the
    #: whole map is dropped once it reaches ``_INTERN_MAX`` entries.
    _intern: dict = {}
    _INTERN_MAX = 4096
    #: Decode memo for :meth:`from_wire_labels`, keyed by label tuple.
    _wire_intern: dict = {}

    def __init__(self, labels: Tuple[bytes, ...]):
        total = sum(len(label) + 1 for label in labels) + 1
        if total > MAX_NAME_LENGTH:
            raise NameError_(f"name exceeds {MAX_NAME_LENGTH} octets")
        for label in labels:
            _validate_label(label)
        self._labels = tuple(labels)
        self._folded = tuple(label.lower() for label in labels)
        self._text: str = ""
        self._wire: bytes = b""

    @classmethod
    def root(cls) -> "DnsName":
        """The DNS root name (zero labels)."""
        return cls(())

    @classmethod
    def from_text(cls, text: str) -> "DnsName":
        """Parse a presentation-format name such as ``"dns.example.com."``."""
        interned = cls._intern.get(text)
        if interned is not None:
            return interned
        if text in ("", "."):
            name = cls.root()
        else:
            stripped = text[:-1] if text.endswith(".") else text
            labels = []
            for part in stripped.split("."):
                if not part:
                    raise NameError_(f"empty label in {text!r}")
                labels.append(part.encode("ascii", errors="strict"))
            name = cls(tuple(labels))
        if len(cls._intern) >= cls._INTERN_MAX:
            cls._intern.clear()
        cls._intern[text] = name
        return name

    @classmethod
    def from_labels(cls, labels: Iterator[bytes]) -> "DnsName":
        return cls(tuple(labels))

    @classmethod
    def from_wire_labels(cls, labels: Tuple[bytes, ...]) -> "DnsName":
        """Build a name from labels a wire reader has already delimited.

        The caller guarantees each label is 1-63 octets (the wire format
        cannot express anything else), so only the total length is
        checked here. Decoded names repeat as often as parsed ones, so
        the result is interned per exact label tuple, bounded like the
        :meth:`from_text` memo.
        """
        interned = cls._wire_intern.get(labels)
        if interned is not None:
            return interned
        if sum(map(len, labels)) + len(labels) + 1 > MAX_NAME_LENGTH:
            raise NameError_(f"name exceeds {MAX_NAME_LENGTH} octets")
        name = cls.__new__(cls)
        name._labels = labels
        name._folded = tuple(label.lower() for label in labels)
        name._text = ""
        name._wire = b""
        if len(cls._wire_intern) >= cls._INTERN_MAX:
            cls._wire_intern.clear()
        cls._wire_intern[labels] = name
        return name

    @property
    def labels(self) -> Tuple[bytes, ...]:
        return self._labels

    @property
    def folded_labels(self) -> Tuple[bytes, ...]:
        """Lower-cased labels (the comparison key), precomputed once."""
        return self._folded

    def to_text(self) -> str:
        """Render in absolute presentation format (trailing dot)."""
        if self._text:
            return self._text
        if not self._labels:
            text = "."
        else:
            text = ".".join(label.decode("ascii")
                            for label in self._labels) + "."
        self._text = text
        return text

    def to_wire(self) -> bytes:
        """Uncompressed wire encoding (len-prefixed labels + root octet).

        Cached per instance — writers with compression disabled emit
        this buffer directly instead of re-walking the labels.
        """
        if self._wire:
            return self._wire
        parts = bytearray()
        for label in self._labels:
            parts.append(len(label))
            parts += label
        parts.append(0)
        wire = bytes(parts)
        self._wire = wire
        return wire

    def to_display(self) -> str:
        """Render without the trailing dot, as users usually write names."""
        return self.to_text().rstrip(".") or "."

    def is_root(self) -> bool:
        return not self._labels

    def parent(self) -> "DnsName":
        """The name with its leftmost label removed.

        Raises :class:`~repro.errors.NameError_` for the root name, which
        has no parent.
        """
        if not self._labels:
            raise NameError_("the root name has no parent")
        return DnsName(self._labels[1:])

    def child(self, label: str) -> "DnsName":
        """Prepend one label: ``example.com. -> label.example.com.``"""
        return DnsName((label.encode("ascii"),) + self._labels)

    def is_subdomain_of(self, other: "DnsName") -> bool:
        """True when ``self`` equals ``other`` or sits below it."""
        if len(other._folded) > len(self._folded):
            return False
        if not other._folded:
            return True
        return self._folded[-len(other._folded):] == other._folded

    def second_level_domain(self) -> "DnsName":
        """The registrable two-label suffix, e.g. ``example.com.``.

        Names with fewer than two labels are returned unchanged. The paper
        groups DoH resolver hostnames and certificate Common Names by SLD;
        this helper implements that grouping.
        """
        if len(self._labels) <= 2:
            return self
        return DnsName(self._labels[-2:])

    def label_count(self) -> int:
        return len(self._labels)

    def wire_length(self) -> int:
        """Length in octets when encoded without compression."""
        return sum(len(label) + 1 for label in self._labels) + 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DnsName):
            return NotImplemented
        return self._folded == other._folded

    def __lt__(self, other: "DnsName") -> bool:
        return self._folded[::-1] < other._folded[::-1]

    def __hash__(self) -> int:
        return hash(self._folded)

    def __len__(self) -> int:
        return len(self._labels)

    def __repr__(self) -> str:
        return f"DnsName({self.to_text()!r})"

    def __str__(self) -> str:
        return self.to_text()
