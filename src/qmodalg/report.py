"""The shape of a report entry and of a suite, shared by every check.

An entry is a plain dict: the claim it checks (citation), what it checks it
on (instance), its verdict (pass) and whatever extra fields the check sets.
"""


def check(citation, instance, ok, **extra):
    """One report entry; an extra whose value is None is left out."""
    entry = {"citation": citation, "instance": instance, "pass": bool(ok)}
    entry.update((key, value) for key, value in extra.items() if value is not None)
    return entry


def suite(name, entries):
    """A named list of entries; it passes when every entry passes."""
    entries = list(entries)
    return {"name": name, "entries": entries, "pass": all(e["pass"] for e in entries)}
