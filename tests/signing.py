"""Hand-edited checked files (catalogues and checkpoints) that keep their checksum."""

from matcat.core import write_checked


def resign(path, lines):
    """Write lines to path under a fresh sha256 footer: the first is the header,
    and an old `#sha256` footer among them is dropped."""
    header, *body = [line for line in lines if not line.startswith("#sha256 ")]
    write_checked(str(path), header, body)
