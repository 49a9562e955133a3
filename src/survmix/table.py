"""The CSV table format, on paths, headers and column arrays alone.

One writer writes every table: it converts blocks of cells in arrays,
rounding exactly, to the bytes that Python's %.17g and %d give one cell
at a time, in fixed notation and in exponent form down to 1e-28, and
leaves Python's % only nan, inf, magnitudes below 1e-28 or from 1e17,
integers from 2^53 and the rare near-tie of a two-step product. Every
file the CLI writes replaces its target through replacing, only once
complete; simulate's three files replace theirs together. One loop reads
every table, checking every row's width and converting only its caller's
cells, with NumPy's C reader (np.loadtxt), so every read accepts one
number syntax.
"""

import contextlib
import errno
import os
from itertools import islice
from operator import itemgetter

import numpy as np

from .errors import FormatError

# Cells per block of rows read: bounds the Python strings a read holds. A
# write formats blocks of an eighth as many cells (8192), since each cell
# takes about 250 bytes of arrays while its text is made.
_BLOCK_CELLS = 1 << 16


@contextlib.contextmanager
def replacing(*paths):
    """An iterator of binary files, one for each of paths in turn: the
    temporary <path>.<pid>.tmp beside each, opened when the block takes it
    and closed when it takes the next. The block takes every file. Once it
    completes, and only then, each temporary is renamed over its path; if
    anything raises first, every temporary is removed, so a failed write
    leaves all of paths as they were. A path that is a directory fails
    before any rename; a rename that fails for another reason leaves the
    paths before it replaced. Any OSError, a rename's too, is raised as
    '<path>: cannot write: <reason>', naming the path of the file then
    written, closed or renamed, not its temporary. A single file is taken
    with: with replacing(path) as (f,)."""
    tmps = list(map(_temporary, paths))
    at = 0  # the index of the path an OSError names
    current = contextlib.ExitStack()  # the file last taken

    def files():
        nonlocal at
        for i, tmp in enumerate(tmps):
            current.close()
            at = i
            yield current.enter_context(open(tmp, "wb"))

    try:
        yield files()
        current.close()
        for at, path in enumerate(paths):  # a rename onto it would fail part way
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        for at, (tmp, path) in enumerate(zip(tmps, paths)):
            os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            current.close()
        for tmp in tmps:
            with contextlib.suppress(OSError):
                os.remove(tmp)
        if isinstance(exc, OSError):
            raise OSError(f"{paths[at]}: cannot write: {exc.strerror or exc}") from None
        raise


def _temporary(path):
    return f"{path}.{os.getpid()}.tmp"  # written by replacing, then renamed over path


def check_writable(*paths):
    """Raise before any work, leaving nothing behind, the OSError that
    replacing(*paths) raises for a temporary it cannot create or a directory."""
    for path in paths:
        try:
            open(_temporary(path), "wb").close()
            os.remove(_temporary(path))
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        except OSError as exc:
            raise OSError(f"{path}: cannot write: {exc.strerror or exc}") from None


def write_table(path, header, columns):
    """Write a table (see write_rows) that replaces path only once
    complete (see replacing)."""
    with replacing(path) as (f,):
        write_rows(f, header, columns)


def write_rows(f, header, columns):
    """Write comma-separated text to the binary file f: the header line,
    then one line per row.

    columns are (N,) or (N, width) arrays in header order. Integer columns
    are written as %d, all others as %.17g, which round-trips every
    float64 exactly; _format_rows makes exactly those bytes, in blocks of
    _BLOCK_CELLS / 8 cells. Lines end in LF.
    """
    columns = [c[:, None] if c.ndim == 1 else c for c in map(np.asarray, columns)]
    integer = np.concatenate([np.full(c.shape[1], c.dtype.kind in "biu") for c in columns])
    step = max(1, (_BLOCK_CELLS >> 3) // len(integer))
    f.write((",".join(header) + "\n").encode())
    for start in range(0, len(columns[0]), step):
        f.write(_format_rows([c[start:start + step] for c in columns], integer))


# The cell formatter. A cell x with E = floor(log10 |x|) in [-28, 16] (or
# x = 0) is written from its 17 correctly rounded digits
# D = round-half-even(|x| * 10^(16 - E)), so %.17g writes it in fixed
# notation for E >= -4 and in exponent form below. 10^k is an exact double
# for k <= 22, and Dekker's product gives |x| * 10^k exactly as hi + lo,
# two doubles, with no FMA or extended type, so the bytes do not depend on
# the platform. For 22 < k <= 44 the product is made in two steps, by
# 10^22 and then by 10^(k - 22), to within 2^-48 (see _scaled), and the
# rare cell whose product lies within 2^-40 of a rounding tie is left to
# Python's %.
# A line of at most 24 bytes is then put together in three little-endian
# words from 4-digit lookups and tables of masks and shifts indexed by
# (sign, E, significant digits, last cell of the row).
# 10^min(k, 22): exact doubles, and for k > 22 the first of two steps
_POW10 = np.array([float(10**min(k, 22)) for k in range(45)])
_VELTKAMP = float(2**27 + 1)  # splits a double into two halves of 26 bits
_WORD = np.dtype("<u8")
_E_MIN = -28  # 16 - E <= 44 = 22 + 22: two steps of at most 10^22
_LEAST = np.nextafter(1e-28, 1.0)  # the least double >= 10^-28; the double 1e-28 is below it


def _four_digit_tables():
    """For 0 <= n < 10^4: the 4 ASCII digits of %04d as a little-endian
    word, and their trailing zeros."""
    n = np.arange(10000, dtype=np.uint16)
    digits = np.zeros((len(n), 8), np.uint8)
    for i in range(4):
        digits[:, i] = 48 + n // 10**(3 - i) % 10
    return digits.view(_WORD).ravel(), sum((n % 10**i == 0).view(np.int8) for i in (1, 2, 3, 4))


_DIGITS4, _ZEROS4 = _four_digit_tables()


def _halves(a):
    """(high, low): a = high + low, each of at most 26 significant bits."""
    c = a * _VELTKAMP
    high = c - (c - a)
    return high, a - high


_POW10_HIGH, _POW10_LOW = _halves(_POW10)


def _times_pow10(a, k):
    """(hi, lo): hi + lo = a * 10**min(k, 22) exactly, hi the rounded
    product (Dekker 1971)."""
    hi = a * _POW10[k]
    ah, al = _halves(a)
    ph, pl = _POW10_HIGH[k], _POW10_LOW[k]
    lo = ah * ph
    lo -= hi
    lo += ah * pl
    lo += al * ph
    lo += al * pl
    return hi, lo


def _line_tables():
    """Per key ((sign * 45 + E + 28) * 17 + significant digits - 1) * 2 +
    last cell of the row: the cell's text words with zeros where its digits
    go, the masks of the digits before and after the point, the shifts in
    bits that move them into place, and the length in bytes, separator
    included. The longest line, the sign, 17 digits, the point, e-XX and
    the separator, is 24 bytes."""
    text, before, after = bytearray(), bytearray(), bytearray()
    shift_before, shift_after, lengths = [], [], []
    for sign in (b"", b"-"):
        for e in range(_E_MIN, 17):
            for s in range(1, 18):
                tail = b""
                if e < -4:  # d.ddde-XX
                    lead, n_before, n_after = sign + b"\0" + b"." * (s > 1), 1, s - 1
                    tail = b"e-%02d" % -e
                elif e < 0:  # 0.000ddd
                    lead, n_before, n_after = sign + b"0." + b"0" * (-e - 1), 0, s
                elif s > e + 1:  # ddd.ddd
                    lead, n_before, n_after = sign + b"\0" * (e + 1) + b".", e + 1, s - e - 1
                else:  # ddd
                    lead, n_before, n_after = sign + b"\0" * (e + 1), e + 1, 0
                for sep in b",\n":
                    line = lead + b"\0" * n_after + tail + bytes([sep])
                    text += line.ljust(24, b"\0")
                    before += (b"\xff" * n_before).ljust(24, b"\0")
                    after += (b"\0" * n_before + b"\xff" * n_after).ljust(24, b"\0")
                    shift_before.append(8 * len(sign))
                    shift_after.append(8 * (len(lead) - n_before))
                    lengths.append(len(line))
    words = [np.frombuffer(t, _WORD).reshape(-1, 3).T.copy() for t in (text, before, after)]
    return *words, np.array(shift_before, _WORD), np.array(shift_after, _WORD), np.array(lengths)


_TEXT, _BEFORE, _AFTER, _SHIFT_BEFORE, _SHIFT_AFTER, _LENGTH = _line_tables()


def _shift_up(words, bits, n):
    """n little-endian words per column: the columns of words moved up by bits (< 64)."""
    out = np.zeros((n, words.shape[1]), _WORD)
    np.left_shift(words, bits, out=out[:len(words)])
    out[1:len(words) + 1] |= words[:n - 1] >> (64 - bits)
    return out


def _scaled(a, k, two):
    """(hi, lo): hi + lo is a * 10**k for 0 <= k <= 44, hi the double
    nearest it; two are the indices where k > 22. Exact for k <= 22.
    Beyond, a * 10^22 = h + l exactly, h * 10^(k - 22) is made exactly and
    l * 10^(k - 22) rounded, so hi + lo is within 2^-48 of the product
    where that is at most 10^17."""
    hi, lo = _times_pow10(a, k)
    if two.size:
        p = k[two] - 22
        h, l = _times_pow10(hi[two], p)
        l += lo[two] * _POW10[p]  # |l| <= 8 and this below 12: each rounds by <= 2^-49
        hi[two] = s = h + l  # Fast-Two-Sum: s is the double nearest h + l, and
        lo[two] = l - (s - h)  # this the rest, exactly, since |l| <= |h|
    return hi, lo


def _decimal(x):
    """(E, D, ok) of float64 cells x: ok where x is 0 or 10^-28 <= |x| <
    10^17, and there ±D * 10^(E - 16), 10^16 <= D < 10^17 (D = 0 for 0),
    is x rounded half to even to 17 significant digits, and E its exponent
    as %.17g writes it. E starts from floor(log10 |x|), which is corrected
    where the product falls outside [10^16, 10^17) and moved up where the
    rounded D is 10^17. A product made in two steps (E < -6) within 2^-40
    of a tie may round either way, so that cell is not ok: about one
    two-step cell in 5 * 10^11, the exact ties among them."""
    a = np.abs(x)
    ok = (a >= _LEAST) & (a < 1e17)
    zero = a == 0
    a[~ok] = 1.0
    e = np.log10(a)
    np.floor(e, out=e)
    e = np.clip(e, _E_MIN, 16, out=e).astype(np.intp)  # log10 may be one off at either end
    two = np.flatnonzero(e < -6)
    hi, lo = _scaled(a, 16 - e, two)
    near = np.flatnonzero((hi <= 1e16) | (hi >= 1e17))  # hi ± ulp(hi)/2 may be outside
    if near.size:
        # No step leaves [-28, 16]: x < 10^17 is scaled exactly at E = 16, and
        # the least x at E = -28 scales to 10^16 + 0.83.
        h, l = hi[near], lo[near]
        step = ((h > 1e17) | (h == 1e17) & (l >= 0)).astype(np.intp)
        step -= (h < 1e16) | (h == 1e16) & (l < 0)
        fix = near[step != 0]
        if fix.size:
            e[fix] += step[step != 0]
            k = 16 - e[fix]
            hi[fix], lo[fix] = _scaled(a[fix], k, np.flatnonzero(k > 22))
            two = np.union1d(two, fix)  # a step may cross E = -7
            two = two[e[two] < -6]
    # hi is an even integer here, so rounding lo half to even rounds hi + lo
    # so. Only a two-step product rounds up to 10^17 (the double 1e-14 at
    # E = -15 scales to 10^17 - 0.12); one step gives at most 10^17 - 8, as
    # 10^(16 - E) is exact and the double below 10^(E + 1) is 10^(E + 1)
    # less an ulp.
    D = hi.astype(np.int64)
    D += np.rint(lo).astype(np.int64)
    if two.size:
        l = lo[two]
        ok[two[np.abs(np.abs(l - np.rint(l)) - 0.5) < 2.0**-40]] = False
        up = two[D[two] == 10**17]
        e[up] += 1
        D[up] = 10**16
    D[zero] = 0
    ok |= zero
    return e, D, ok


def _digits(D):
    """The 17 digits of each D < 10^17 as ASCII bytes in three
    little-endian words, and the count of them left when trailing zeros go
    (1 for D = 0)."""
    high = D // 10**8
    low = D - high * 10**8
    first = high // 10**8
    high -= first * 10**8
    g0, g2 = high // 10**4, low // 10**4
    groups = g0, high - g0 * 10**4, g2, low - g2 * 10**4
    zeros = _ZEROS4[g0]
    for g in groups[1:]:
        zeros = _ZEROS4[g] + (g == 0) * zeros
    g0, g1, g2, g3 = (_DIGITS4[g] for g in groups)
    words = np.empty((3, len(D)), _WORD)
    np.add(first, 48, out=words[0], casting="unsafe")
    words[0] |= g0 << 8 | g1 << 40
    words[1] = g1 >> 24 | g2 << 8 | g3 << 40
    words[2] = g3 >> 24
    return words, 17 - zeros


def _end_to_end(words, length):
    """The cells' bytes, the first length of each column of words, end to
    end: each cell's words moved to its byte offset and added into the
    block's words, where no two cells overlap."""
    end = np.cumsum(length)
    start = end - length
    placed = _shift_up(words, (start & 7).astype(_WORD) << 3, len(words) + 1)
    start >>= 3
    out = np.zeros(end[-1] // 8 + len(placed), _WORD)
    for k, row in enumerate(placed):
        np.add.at(out, start + k, row)
    return out.view(np.uint8)[:end[-1]]


def _format_rows(columns, integer):
    """The text of a block of rows, as a uint8 array: columns are (rows,
    width_i) arrays, integer flags each of their columns as %d, the others
    are %.17g. Integers below 2^53 in magnitude are exact as float64 and
    written as it; the cells _decimal leaves out (nan, ±inf, magnitudes
    below 10^-28 or from 10^17, and the rare two-step near-ties) and
    integers of 2^53 or more go through Python's own %."""
    values = np.hstack(columns, dtype=float)
    rows, width = values.shape
    x = values.ravel()
    e, D, ok = _decimal(x)
    whole = np.flatnonzero(integer)
    ok.reshape(rows, width)[:, whole] &= np.abs(values[:, whole]) < 2.0**53
    digits, significant = _digits(D)
    key = ((np.signbit(x) * 45 + e - _E_MIN) * 17 + significant - 1) * 2
    key[width - 1::width] += 1
    del values, x, e, D, significant  # the block's peak memory is in what follows

    line = _shift_up(digits & np.take(_BEFORE, key, axis=1), _SHIFT_BEFORE[key], 3)
    digits &= np.take(_AFTER, key, axis=1)
    line |= _shift_up(digits, _SHIFT_AFTER[key], 3)
    line |= np.take(_TEXT, key, axis=1)
    length = _LENGTH[key]
    special = np.flatnonzero(~ok)
    if not special.size:
        return _end_to_end(line, length)

    cells = [(c, j) for c in columns for j in range(c.shape[1])]
    texts = []
    for i, j in zip(*np.divmod(special, width)):
        column, k = cells[j]
        texts.append(("%d" if integer[j] else "%.17g") % column[i, k]
                     + ("\n" if j == width - 1 else ","))
    line[:, special] = 0
    length[special] = list(map(len, texts))
    out = _end_to_end(line, length)
    for end, text in zip(np.cumsum(length)[special].tolist(), texts):
        out[end - len(text):end] = np.frombuffer(text.encode(), np.uint8)
    return out


def read_table(path, check_header):
    """Parse the columns a caller uses of a table written by write_table;
    CRLF line ends are accepted.

    check_header(header) raises FormatError on a header it cannot use and
    returns (names, integer names): the columns the caller uses, and the
    integer ones among them. A header naming a column twice is rejected.
    Rows are read in blocks of about _BLOCK_CELLS cells, and NumPy's C
    reader (np.loadtxt, through _parse) converts each block: when the
    names are the whole header in order, its raw lines, whose widths the
    reader and _parse check; otherwise the named cells of each row,
    rejoined. Such a row is split only as far as the named cells reach,
    from its nearer end; the far piece is one cell or the rest of the row,
    whose commas complete the row's cell count, which is checked. Integer
    cells come from the same one cut (a full read cuts only as far as the
    integer names reach) and are converted to int as well. Returns the
    named columns as an (N, len(names)) float array and {integer name:
    (N,) ints}. Errors name the first bad data row, counting from 0.
    """
    with open(path, errors="replace") as f:  # undecodable bytes then fail as cells
        header = f.readline().rstrip("\n").split(",")
        if header == [""]:
            raise FormatError(f"{path}: empty file, header row required")
        names, integer_names = check_header(header)
        position = {name: j for j, name in enumerate(header)}
        for j, name in enumerate(header):
            if position[name] != j:
                raise FormatError(f"{path}: repeated column {name!r}")
        width, columns = len(header), [position[name] for name in names]
        integers = [position[name] for name in integer_names]
        full = columns == list(range(width))
        reach = integers if full else columns
        lo, hi = min(reach, default=0), max(reach, default=0)
        if hi + 1 <= width - lo:  # cells 0..hi, then the rest
            cut, maxsplit, far, shift = str.split, hi + 1, -1, 0
        else:  # the rest, then cells lo..width-1
            cut, maxsplit, far, shift = str.rsplit, width - lo, 0, 1 - lo
        join_used = None if full else _joiner([j + shift for j in columns])
        join_ints = _joiner([j + shift for j in integers]) if integers else None
        step, first = max(1, _BLOCK_CELLS // width), 0
        floats, ints = [np.empty((0, len(columns)))], [np.empty((0, len(integers)), dtype=int)]
        while lines := list(islice(f, step)):
            try:
                rows = [cut(line.rstrip("\n"), ",", maxsplit) for line in lines] if reach else []
                if full:  # the C reader refuses rows of unequal widths, _parse rows all of another
                    floats.append(_parse(lines, float, width))
                elif any(len(cells) + cells[far].count(",") != width for cells in rows):
                    raise ValueError("a row of another width, found below")
                else:
                    floats.append(_parse(list(map(join_used, rows)), float, len(columns)))
                if integers:
                    ints.append(_parse(list(map(join_ints, rows)), int, len(integers)))
            except (ValueError, OverflowError):
                _raise_bad_row(path, [line.rstrip("\n").split(",") for line in lines], first,
                               width, columns, integers)
            first += len(lines)
    return np.concatenate(floats), dict(zip(integer_names, np.concatenate(ints).T))


def _joiner(at):
    """cells -> the cells at the indices at, joined by commas."""
    pick = itemgetter(*at)
    return pick if len(at) == 1 else lambda cells: ",".join(pick(cells))


def _parse(lines, kind, width):
    """(len(lines), width) array of kind: lines of width comma-separated
    numbers, parsed by NumPy's C reader; ValueError on any other line. The
    reader skips blank lines, and warns when it finds no other, so a blank
    line is refused before it runs, and the rows it returns are counted."""
    if "" in lines or "\n" in lines:
        raise ValueError("a blank row, found below")
    values = np.loadtxt(lines, dtype=kind, delimiter=",", comments=None, ndmin=2)
    if values.shape != (len(lines), width):
        raise ValueError("a row the reader skipped, found below")
    return values


def _raise_bad_row(path, rows, first, width, columns, integers):
    """FormatError for the first of rows (split cells, the first being
    row number first) that is not width cells long or holds a cell at
    columns that NumPy's C reader does not read as a float, or at
    integers as an int. The message names the first such cell, floats in
    row order before ints, as a read of every cell would, in the words of
    Python's float or int when that rejects the cell too."""
    for i, row in enumerate(rows, first):
        if len(row) != width:
            raise FormatError(f"{path}: row {i}: expected {width} cells, got {len(row)}")
        used = [(float, [row[j] for j in sorted(columns)]), (int, [row[j] for j in integers])]
        if all(_reads(cells, kind) for kind, cells in used if cells):
            continue
        kind, cell = next((kind, cell) for kind, cells in used for cell in cells
                          if not _reads([cell], kind))
        try:
            np.array([cell], dtype=kind)
        except (ValueError, OverflowError) as exc:
            raise FormatError(f"{path}: row {i}: non-numeric cell ({exc})") from None
        raise FormatError(f"{path}: row {i}: non-numeric cell ({cell!r} is not "
                          f"{kind.__name__} text that np.loadtxt reads)")


def _reads(cells, kind):
    """Whether NumPy's C reader parses each of the cells as kind."""
    try:
        _parse([",".join(cells)], kind, len(cells))
    except (ValueError, OverflowError):
        return False
    return True

