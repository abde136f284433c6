"""Censored-sample containers, ordering with concomitants, selection of
the top order statistics, ``value,delta`` CSV input, and the CSV text of
result tables.

A CSV path is read once, in byte blocks cut at line ends that
``numpy.loadtxt`` parses; a large file is cut at line ends into parts
parsed at the same time (:func:`_in_processes`), and their largest rows
are merged in file order.  Whatever that pass does not accept is read by
a row scanner, which alone reports errors."""

from __future__ import annotations

import csv
import io
import logging
import os
import sys
import threading
import time
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import EmptySample, InvalidIndicator, NonPositiveObservation, ParseError

_log = logging.getLogger("censtail")


def _freeze(arr):
    arr.flags.writeable = False
    return arr


def _validate_into(sample, ordered=False):
    """Check a sample's ``z`` and ``delta`` and store them as frozen float
    and int8 arrays; ``ordered`` also requires ``z`` to be nondecreasing,
    with uncensored observations before censored ones at a tie."""
    z = np.asarray(sample.z, dtype=float)
    delta_raw = np.asarray(sample.delta)
    if z.ndim != 1 or delta_raw.ndim != 1:
        raise ValueError("z and delta must be one-dimensional")
    if z.shape != delta_raw.shape:
        raise ValueError(
            f"z and delta lengths differ: {z.shape[0]} vs {delta_raw.shape[0]}"
        )
    if z.size == 0:
        raise EmptySample("sample must contain at least one observation")
    if not _finite_positive(z):
        raise NonPositiveObservation("all observations must be finite and strictly positive")
    if ordered:
        if np.any(np.diff(z) < 0):
            raise ValueError("order statistics must be nondecreasing")
        censored_first = (delta_raw[:-1] == 0) & (delta_raw[1:] == 1)
        if np.any(censored_first & (z[1:] == z[:-1])):
            raise ValueError("at a tie, uncensored observations must come first")
    if not ((delta_raw == 0) | (delta_raw == 1)).all():
        raise InvalidIndicator("censoring indicators must be 0 or 1")
    _store(sample, z, delta_raw.astype(np.int8))


def _finite_positive(z):
    """Whether every entry of ``z`` is finite and strictly positive."""
    return bool(np.isfinite(z).all() and (z > 0).all())


def _tie_blocks(z):
    """Start and one-past-end index of each tie block of the sorted values z."""
    start = np.flatnonzero(np.concatenate(([True], z[1:] != z[:-1])))
    return start, np.append(start[1:], z.size)


def _store(sample, z, delta):
    object.__setattr__(sample, "z", _freeze(z))
    object.__setattr__(sample, "delta", _freeze(delta))


def _unchecked(cls, z, delta):
    """A ``cls`` sample of float ``z`` and int8 ``delta`` already checked,
    stored without checking them again."""
    out = object.__new__(cls)
    _store(out, z, delta)
    return out


def _integer(value, name, error, **fields):
    """``value`` as a Python int; a boolean or a non-integer raises
    ``error`` with ``fields``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{name} must be an integer, got {value!r}", **fields)
    return int(value)


@dataclass(frozen=True)
class CensoredSample:
    """Raw right-censored observations ``(z_i, delta_i)``.

    ``z`` holds the observed values (minimum of the variable of interest and
    its censoring variable) and ``delta`` is 1 where the true value was
    observed, 0 where it was censored.  All observations must be strictly
    positive because every estimator downstream takes logarithms of
    z-ratios.
    """

    z: np.ndarray
    delta: np.ndarray

    def __post_init__(self):
        _validate_into(self)

    @property
    def n(self):
        return self.z.shape[0]


@dataclass(frozen=True)
class SortedCensoredSample:
    """Ascending order statistics with their concomitant indicators.

    ``z`` is nondecreasing and ``delta[j]`` is the censoring indicator that
    travelled with the j-th order statistic.  Instances are produced by
    :func:`sort_with_concomitants`; direct construction is allowed for
    already-sorted data that follows its tie order (uncensored before
    censored), which every rank-based hazard relies on.
    """

    z: np.ndarray
    delta: np.ndarray

    def __post_init__(self):
        _validate_into(self, ordered=True)

    @property
    def n(self):
        return self.z.shape[0]


def sort_with_concomitants(sample):
    """Sort a censored sample, carrying the indicators as concomitants.

    Ties in ``z`` are broken deterministically: uncensored observations
    (delta = 1) come before censored ones, and remaining ties keep the
    original input order.

    Parameters
    ----------
    sample : CensoredSample

    Returns
    -------
    SortedCensoredSample
    """
    order = np.lexsort((-sample.delta, sample.z))
    # validated, and ordered by construction
    return _unchecked(SortedCensoredSample, sample.z[order], sample.delta[order])


def top_order_statistics(sample, m):
    """The m largest observations, with the rest of the tie block at the
    m-th largest, and their indicators.

    An estimator at k reads only the top k + 1 order statistics, so a
    k grid up to k_max needs ``top_order_statistics(sample, k_max + 1)``
    and nothing below it.  A :class:`SortedCensoredSample` gives a
    :class:`SortedCensoredSample` sliced from it.  A :class:`CensoredSample`
    gives a :class:`CensoredSample` of the selected rows in input order,
    found by an O(n) selection (``numpy.partition``) rather than a sort;
    :func:`sort_with_concomitants` of it is exactly the top of the sorted
    sample.  With m >= n the result is ``sample`` itself.

    Parameters
    ----------
    sample : CensoredSample or SortedCensoredSample
    m : int
        At least 1.
    """
    if (m := _integer(m, "m", TypeError)) < 1:
        raise ValueError(f"m must be at least 1, got {m}")
    lo = sample.n - m  # sorted position of the m-th largest
    if lo <= 0:
        return sample
    z, delta = sample.z, sample.delta
    if isinstance(sample, SortedCensoredSample):
        start = np.searchsorted(z, z[lo])
        z, delta = z[start:], delta[start:]
    else:
        top = _top_mask(z, m)
        z, delta = z[top], delta[top]
    return _unchecked(type(sample), z, delta)  # rows of a validated sample, in its order


def _top_mask(z, m):
    """Which entries of ``z`` are among its m largest, or tied with the m-th
    largest: the selection of :func:`top_order_statistics`, for m < z.size."""
    lo = z.size - m
    return z >= np.partition(z, lo)[lo]


class _RunningTop:
    """The rows of a sequence of row blocks that :func:`top_order_statistics`
    with m would select from all of them, kept while the blocks come.

    A row is a value of ``z`` with the entries at its position in any
    arrays that travel with it.  Rows below the m-th largest value kept so
    far are dropped from each block as it comes, and the kept rows are cut
    back to their own top once they reach 2m: the m-th largest of some rows
    is never above that of all of them, so no dropped row belongs to the
    final selection.  Memory stays at about 2m rows plus a block.  With m
    None every row is kept.  ``n`` counts the rows added.
    """

    def __init__(self, m):
        self.m, self.n = m, 0
        self._parts, self._kept, self._floor = [], 0, -np.inf

    def add(self, z, *rest):
        self.n += z.size
        arrays = (z, *rest)
        if self._floor > -np.inf:
            rows = z >= self._floor
            arrays = tuple(a[rows] for a in arrays)
        self._parts.append(tuple(np.ascontiguousarray(a) for a in arrays))
        self._kept += arrays[0].size
        if self.m is not None and self._kept >= 2 * self.m:
            self._cut()

    def rows(self):
        """The kept arrays, ``z`` first, with their rows in the order added:
        those of ``top_order_statistics`` of every row added."""
        if self.m is not None and self._kept > self.m:
            self._cut()
        return self._joined()

    def _joined(self):
        if len(self._parts) > 1:
            self._parts = [tuple(np.concatenate(a) for a in zip(*self._parts))]
        return self._parts[0]

    def _cut(self):
        arrays = self._joined()
        rows = _top_mask(arrays[0], self.m)
        arrays = tuple(a[rows] for a in arrays)
        self._parts, self._kept, self._floor = [arrays], arrays[0].size, arrays[0].min()


# ---------------------------------------------------------------------------
# CSV input


class TopRows(NamedTuple):
    """What :func:`read_csv` keeps with ``top``: ``n``, the number of rows
    it read, and ``sample``, the ``top`` largest of them with the rest of the
    tie block at the ``top``-th largest, as :func:`top_order_statistics`
    selects them."""

    n: int
    sample: CensoredSample


def read_csv(source, *, header=None, top=None):
    """Read a censored sample from a ``value,delta`` CSV file.

    A path is parsed by ``numpy.loadtxt`` in blocks of at most 128 KiB cut
    at line ends, a text stream by a row scanner (``csv.reader`` and
    ``float`` on each row).  Both accept the same inputs and give
    bit-identical values: whatever the vectorised pass does not accept
    outright is read again by the scanner, so errors and their line
    numbers always come from the scanner.  A file of at least twice
    ``_PART_BYTES`` is cut at line ends into parts that are parsed at the
    same time, one process each (:func:`_read_path_fast`).

    With ``top``, only ``top_order_statistics(sample, top)`` is kept.  The
    input is then never held whole, by either reader: each block of rows is
    merged into the largest rows so far as it is read, so each part takes
    about 2 ``top`` rows plus a block, however long the file.  Every row is
    still parsed and checked.

    Each call logs one debug event to the ``censtail`` logger: the path
    taken (``fast`` or ``scanner``), why the scanner read a file, and the
    parts, rows, bytes and seconds.  The record's ``read_csv`` attribute
    holds them as a dict.

    Parameters
    ----------
    source : path or text stream
    header : bool, optional
        True when the first line is a header, False when data starts on
        line 1, and None to sniff: the first line is treated as a header
        only when none of its fields parses as a number.  Otherwise it is
        data, so a malformed first row such as ``abc,1`` is a ParseError on
        row 1 rather than a silently skipped header.
    top : int, optional
        At least 1.

    Returns
    -------
    CensoredSample or TopRows
        The rows in file order; with ``top``, a :class:`TopRows` of the
        row count and the selected rows in file order.

    Raises
    ------
    ParseError
        Malformed row, with its 1-based line number, or text that is not
        UTF-8.
    NonPositiveObservation
        A value column entry was <= 0 or not finite.
    InvalidIndicator
        A delta column entry was not 0 or 1.
    EmptySample
        No data rows.
    """
    if top is not None and _integer(top, "top", TypeError) < 1:
        raise ValueError(f"top must be at least 1, got {top}")
    began = time.perf_counter()
    notes = {"path": "fast", "reason": None, "parts": 1, "rows": None, "bytes": None}
    try:
        read = None
        if isinstance(source, (str, os.PathLike)):
            read = _read_path_fast(source, header, top, notes)
        else:
            notes["reason"] = "a text stream"
        if read is None:
            notes["path"] = "scanner"
            read = _scan_csv(source, header, top)
        notes["rows"] = read.n
        return read
    finally:
        notes["seconds"] = time.perf_counter() - began
        _log.debug("read_csv: path=%(path)s reason=%(reason)s parts=%(parts)s rows=%(rows)s "
                   "bytes=%(bytes)s seconds=%(seconds).6f", notes, extra={"read_csv": notes})


_BLOCK_ROWS = 1 << 16  # rows per block: of the row scanner, of draws in models._top_sample
_BLOCK_BYTES = 1 << 17  # most bytes per loadtxt block: csv's default field_size_limit()
# Starting and joining a process pool takes 7-15 ms on a 2-core Xeon VM, as
# long as loadtxt takes for about 1 MB of CSV: a part is worth a process
# from about twice that.
_PART_BYTES = 1 << 21


class _Refused(Exception):
    """A file the vectorised pass leaves to the row scanner; the text says
    why."""


def _read_path_fast(path, header, top=None, notes=None):
    """What :func:`read_csv` returns for the CSV file at ``path``, parsed
    by ``numpy.loadtxt``, or None where the row scanner must read the file.

    Only inputs the row scanner accepts get through, with the values it
    would give.  Line 1 decides the header as the scanner's first non-empty
    row does, so a line 1 that is blank, or holds a quote (the csv row may
    then span lines) or a NUL (which csv.reader before Python 3.11
    refuses), is left to the scanner, and so is a file with a line longer
    than ``csv.field_size_limit()`` or 128 KiB (:func:`_parse_part`).
    loadtxt iterates the lines csv.reader iterates and skips the same blank
    ones; it parses a field to the value ``float`` gives, and refuses
    quotes, underscores and non-ASCII digits, which ``float`` or csv.reader
    read differently.

    The file is cut just past a ``\\n`` into ``_processes(bytes //
    _PART_BYTES)`` parts, parsed by :func:`_parse_part` through
    :func:`_in_processes`; any part refused sends the whole file to the
    scanner.  The parts' kept rows go into one :class:`_RunningTop` in file
    order: the top of a union is the top of the parts' tops, so the rows,
    their order and the row count do not depend on the cuts.

    ``notes``, a dict, gets the parts (1 if the pool failed), the bytes,
    and why the scanner must read the file or the pool failed.
    """
    notes = {} if notes is None else notes
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            line = fh.readline().rstrip("\r\n")
            size = os.fstat(fh.fileno()).st_size
        if not line or '"' in line or "\x00" in line:
            raise _Refused("line 1 is blank or holds a quote or a NUL")
        skip = int(_is_header(line.split(","), header))
        ranges = _byte_ranges(path, size, _processes(size // _PART_BYTES))
        notes.update(parts=len(ranges), bytes=size)
        parts, failed = _in_processes(
            _parse_part, [(path, start, stop, skip if start == 0 else 0, top)
                          for start, stop in ranges])
        if failed:
            notes.update(parts=1, reason=f"process pool failed, parsed here: {failed}")
        n = sum(count for count, _ in parts)
        if n == 0:
            raise _Refused("no data rows")  # the scanner's EmptySample
        kept = _RunningTop(top)
        for _, rows in parts:
            if rows is not None:
                kept.add(*rows)
        sample = _unchecked(CensoredSample, *kept.rows())
        return sample if top is None else TopRows(n, sample)
    except Exception as exc:  # any failure leaves the verdict, and the error, to the scanner
        notes["reason"] = _reason(exc)
        return None


def _reason(exc):
    """Why the vectorised pass gave up, from what it raised."""
    return str(exc) if isinstance(exc, _Refused) else f"{type(exc).__name__}: {exc}"


def _usable_cpus():
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else the host's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _processes(wanted):
    """How many processes run ``wanted`` jobs, this one included: at most
    one per usable CPU, and one unless processes start by ``fork`` (a
    spawned interpreter costs more than most jobs save), this process runs
    one thread (a fork copies no other thread, nor can it release a lock
    one holds) and it may have children.  With no start method set, Linux
    starts them by ``fork`` wherever it is offered, whatever the default
    (``forkserver`` from Python 3.14); elsewhere the platform's default
    decides.  ``multiprocessing`` is imported only for two jobs or more, so
    a one-process run never loads it."""
    if wanted < 2:
        return 1
    import multiprocessing

    method = multiprocessing.get_start_method(allow_none=True)
    if method is None:
        offered = multiprocessing.get_all_start_methods()
        method = "fork" if sys.platform == "linux" and "fork" in offered else offered[0]
    if (method != "fork" or threading.active_count() > 1
            or multiprocessing.current_process().daemon):
        return 1
    return min(wanted, _usable_cpus())


def _in_processes(fn, jobs):
    """``[fn(*job) for job in jobs]``, and None or why the pool failed.

    The first job runs here and each other in a forked worker, all at the
    same time, and every worker is joined before this returns.  Where the
    pool cannot start or breaks (``OSError``, or ``RuntimeError`` such as
    BrokenProcessPool), every job runs here, so a job that raises one of
    those runs here again and raises.  The pool is imported only for two
    jobs or more."""
    if len(jobs) > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        try:
            with ProcessPoolExecutor(len(jobs) - 1,
                                     mp_context=multiprocessing.get_context("fork")) as pool:
                rest = [pool.submit(fn, *job) for job in jobs[1:]]
                return [fn(*jobs[0]), *(future.result() for future in rest)], None
        except (OSError, RuntimeError) as exc:
            return [fn(*job) for job in jobs], _reason(exc)
    return [fn(*job) for job in jobs], None


def _byte_ranges(path, size, parts):
    """At most ``parts`` byte ranges ``(start, stop)`` that cover a file of
    ``size`` bytes, the last one's stop None (the file's end).  Each range
    but the last ends just past the first ``\\n`` at or after an even share
    of the bytes; a file with no ``\\n`` past a share, such as one with lone
    ``\\r`` line ends, gives fewer."""
    starts = [0]
    with open(path, "rb") as fh:
        for i in range(1, parts):
            cut = _line_start_after(fh, max(size * i // parts, starts[-1]))
            if cut is None or cut >= size:
                break
            starts.append(cut)
    return list(zip(starts, [*starts[1:], None]))


def _line_start_after(fh, at):
    """The offset just past the first ``\\n`` at or after byte ``at`` of
    the binary file ``fh``, or None if there is none."""
    fh.seek(at)
    while block := fh.read(1 << 16):
        if (end := block.find(b"\n")) >= 0:
            return at + end + 1
        at += len(block)
    return None


def _parse_part(path, start, stop, skip, top):
    """The row count of the lines from byte ``start`` of the file at
    ``path`` to byte ``stop`` (None: its end), and their rows that
    ``_RunningTop(top)`` keeps, as ``(z, delta)`` in file order (None for
    no rows).  ``start`` is a line start and ``stop`` just past a line
    end; the first ``skip`` lines are not rows.

    The part's bytes are read once, in blocks of at most B + 1 bytes, B =
    min(``csv.field_size_limit()``, ``_BLOCK_BYTES``).  Each block is cut
    just past its last ``\\n`` or ``\\r``, the bytes after the cut start the
    next block, and ``loadtxt`` parses it with universal newlines; each
    block's table is checked as :class:`CensoredSample` checks a sample.
    Every block thus starts at a line start, so one with no line end holds
    a line of more than B bytes, whose field csv.reader may refuse: a
    :class:`_Refused`, unless the block ends the part and holds at most B
    bytes.  A U+FEFF is skipped only at the file's start, as the scanner
    skips it.  Whatever the part does not accept is a :class:`_Refused`.
    """
    try:
        most = min(csv.field_size_limit(), _BLOCK_BYTES)
        stop = sys.maxsize if stop is None else stop
        kept, rest = _RunningTop(top), b""
        encoding = "utf-8-sig" if start == 0 else "utf-8"
        with open(path, "rb") as fh, warnings.catch_warnings():
            # a block of blank lines only: loadtxt warns and reads nothing
            warnings.simplefilter("ignore", UserWarning)
            fh.seek(start)
            while block := rest + fh.read(min(most + 1 - len(rest), stop - fh.tell())):
                # fewer than B + 1 bytes: the part's last block
                cut = (len(block) if len(block) <= most
                       else max(block.rfind(b"\n"), block.rfind(b"\r")) + 1)
                if not cut:
                    raise _Refused(f"a line is longer than {most} bytes")
                block, rest = block[:cut], block[cut:]
                table = np.loadtxt(io.StringIO(block.decode(encoding), newline=None),
                                   delimiter=",", comments=None, ndmin=2, skiprows=skip)
                encoding, skip = "utf-8", 0
                if not table.size:
                    continue
                if table.shape[1] != 2:
                    raise _Refused(f"a row holds {table.shape[1]} fields")
                z, delta = table[:, 0], table[:, 1]
                # the checks of CensoredSample, and delta before the cast, which would truncate
                if not (_finite_positive(z) and ((delta == 0) | (delta == 1)).all()):
                    raise _Refused("a row fails the checks of CensoredSample")
                kept.add(z, delta.astype(np.int8))
        return kept.n, kept.rows() if kept.n else None
    except Exception as exc:
        raise _Refused(_reason(exc)) from None


def _scan_csv(source, header, top=None):
    """What :func:`read_csv` returns, read by the row scanner: csv.reader
    and ``float`` on each row, each row checked as it is read, as
    :class:`CensoredSample` checks a sample.  Every ``_BLOCK_ROWS`` rows the
    checked rows go into a ``_RunningTop(top)``, as :func:`_parse_part`'s
    blocks do, so with ``top`` it holds about 2 ``top`` rows plus a block."""
    owned = isinstance(source, (str, os.PathLike))
    stream = open(source, "r", encoding="utf-8-sig", newline="") if owned else source
    kept, values, deltas = _RunningTop(top), [], []
    try:
        first_data_row = True
        for lineno, row in enumerate(_csv_rows(stream), start=1):
            if not row:
                continue
            if first_data_row:
                first_data_row = False
                if _is_header(row, header):
                    continue
            if len(row) != 2:
                raise ParseError(f"row {lineno}: expected 2 fields, got {len(row)}", row=lineno)
            try:
                value = float(row[0])
            except ValueError:
                raise ParseError(
                    f"row {lineno}: cannot parse value {row[0]!r}", row=lineno
                ) from None
            if not np.isfinite(value) or value <= 0.0:
                raise NonPositiveObservation(
                    f"row {lineno}: observation must be positive, got {row[0]!r}",
                    row=lineno,
                )
            try:
                delta = float(row[1])
            except ValueError:
                raise ParseError(
                    f"row {lineno}: cannot parse delta {row[1]!r}", row=lineno
                ) from None
            if delta not in (0.0, 1.0):
                raise InvalidIndicator(
                    f"row {lineno}: delta must be 0 or 1, got {row[1]!r}", row=lineno
                )
            values.append(value)
            deltas.append(int(delta))
            if len(values) == _BLOCK_ROWS:
                kept.add(np.array(values), np.array(deltas, dtype=np.int8))
                values, deltas = [], []
    finally:
        if owned:
            stream.close()
    if values:
        kept.add(np.array(values), np.array(deltas, dtype=np.int8))
    if not kept.n:
        raise EmptySample("CSV file contains no data rows")
    sample = _unchecked(CensoredSample, *kept.rows())
    return sample if top is None else TopRows(kept.n, sample)


def _csv_rows(stream):
    """csv.reader's rows of ``stream``.  A row csv.reader refuses, such as
    one with a field over ``csv.field_size_limit()``, is a ParseError with
    the reader's line number, and bytes that are not UTF-8 are a ParseError
    too."""
    reader = csv.reader(stream)
    try:
        yield from reader
    except csv.Error as exc:
        raise ParseError(f"row {reader.line_num}: {exc}", row=reader.line_num) from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not UTF-8 text: byte 0x{exc.object[exc.start]:02x}, "
                         f"{exc.reason}") from None


def _is_header(fields, header):
    """Whether the first non-empty row, split into ``fields``, is a header."""
    if header is None:
        return not any(_is_number(field) for field in fields)
    return header


def _is_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


# ---------------------------------------------------------------------------
# CSV output


@dataclass(frozen=True)
class Table:
    """Rectangular table with named columns, the unit of CSV emission."""

    columns: tuple
    rows: tuple

    def __post_init__(self):
        columns = tuple(str(c) for c in self.columns)
        rows = tuple(tuple(r) for r in self.rows)
        width = len(columns)
        for i, row in enumerate(rows):
            if len(row) != width:
                raise ValueError(f"row {i} has {len(row)} cells, expected {width}")
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "rows", rows)


def format_cell(value):
    """Render one table cell; floats use 17 significant digits so that the
    decimal text round-trips to the identical binary value."""
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def render_csv(table):
    """Return the CSV text of a table as a string ('\\n' line endings).

    Undefined cells (None) are emitted as empty fields.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(table.columns)
    for row in table.rows:
        writer.writerow([format_cell(v) for v in row])
    return buf.getvalue()
