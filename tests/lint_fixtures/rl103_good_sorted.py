"""GOOD: every set walk is wrapped in sorted(...); lists iterate freely."""


def merge_keys(before, after):
    out = []
    for key in sorted(set(before) | set(after)):
        out.append(key)
    return out


def list_walk(items):
    return [item for item in items]


def membership_only(haystack, needle):
    return needle in set(haystack)


def owners_list(e2lds, owner):
    return list(sorted(set(e2lds) | {owner}))


def label_tuple(name, cdn):
    return tuple(sorted({name, cdn}))


def joined_names(a, b):
    return ",".join(sorted(set(a) | set(b)))


def list_copy(items):
    return list(items)
