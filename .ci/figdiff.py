"""Names the first difference between two `repro --json` reports' figures.

The CI baseline gates import this to say which figure and field broke
the determinism contract, e.g. `fig_fabric.parsim[0].events[1]`.
"""

# Host-dependent fields, stripped before any comparison.
HOST = ('wall_ms', 'events_per_sec', 'peak_rss_bytes')


def strip(fig):
    return {k: v for k, v in fig.items() if k not in HOST}


def first_diff(a, b, path):
    """`path.field[i]...: a != b` for the first value that differs, or None."""
    if isinstance(a, dict) and isinstance(b, dict):
        for k in list(a) + [k for k in b if k not in a]:
            if (k in a) != (k in b):
                return f'{path}.{k}: present only in the {"first" if k in a else "second"}'
            d = first_diff(a[k], b[k], f'{path}.{k}')
            if d:
                return d
        return None
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            d = first_diff(x, y, f'{path}[{i}]')
            if d:
                return d
        return None
    return None if a == b else f'{path}: {a!r} != {b!r}'


def first_figure_diff(expected, got):
    """The first difference between two figure lists, host fields stripped."""
    names = ([f['name'] for f in expected], [f['name'] for f in got])
    if names[0] != names[1]:
        return f'figure list: {names[0]} != {names[1]}'
    for e, g in zip(expected, got):
        d = first_diff(strip(e), strip(g), e['name'])
        if d:
            return d
    return None
