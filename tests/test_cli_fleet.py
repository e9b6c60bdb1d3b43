"""Fleet-command CLI contracts, run in-process through ``main``.

``sweep``, ``ladder`` and ``dse`` share one queue-flag block and one
queue opener; these tests pin what that sharing must not change: the
refusals each command makes before any work starts, and the flag
surface (names, dests, defaults, types, choices, nargs) of every
subcommand.
"""

import argparse

import pytest

from repro.__main__ import main
from repro.pipeline.dist import DirectoryJobQueue

FLEET_COMMANDS = ["sweep", "ladder", "dse"]


def _tree(root):
    return sorted(str(p.relative_to(root)) for p in root.rglob("*"))


@pytest.mark.parametrize("command", FLEET_COMMANDS)
@pytest.mark.parametrize("case", ["resume-without-queue", "dir-and-url",
                                  "populated-dir"])
def test_fleet_refusals(command, case, tmp_path, capsys):
    queue_dir = tmp_path / "q"
    if case == "resume-without-queue":
        argv, flag = ["--resume"], "--resume"
    elif case == "dir-and-url":
        argv = ["--queue-dir", str(queue_dir),
                "--queue-url", "http://127.0.0.1:1"]
        flag = "--queue-url"
    else:
        DirectoryJobQueue(queue_dir).submit({"codec": "classical"},
                                            job_id="leftover")
        argv, flag = ["--queue-dir", str(queue_dir)], "--resume"
    before = _tree(tmp_path)
    assert main([command, "--workers", "0", *argv]) == 2
    assert flag in capsys.readouterr().err
    assert _tree(tmp_path) == before  # refused runs write nothing


@pytest.mark.parametrize("argv", [["failures"], ["retry", "--all"]])
@pytest.mark.parametrize("exists", [False, True], ids=["missing", "empty"])
def test_inspection_refuses_a_directory_without_a_queue(
    argv, exists, tmp_path, capsys
):
    """``failures``/``retry`` look at what a run left behind: a
    directory that holds no queue is refused, and looking writes
    nothing into it."""
    queue_dir = tmp_path / "q"
    if exists:
        queue_dir.mkdir()
    before = _tree(tmp_path)
    assert main([*argv, "--queue-dir", str(queue_dir)]) == 2
    assert "no queue directory at" in capsys.readouterr().err
    assert _tree(tmp_path) == before


def test_worker_without_max_attempts_keeps_the_directorys(tmp_path, capsys):
    """``repro worker --queue-dir`` without ``--max-attempts`` uses what
    the directory was created with; a conflicting explicit value is
    refused before any job runs."""
    queue_dir = tmp_path / "q"
    queue = DirectoryJobQueue(queue_dir, max_attempts=5)
    queue.submit({"codec": "no-such-codec"}, job_id="doomed")
    assert main(["worker", "--queue-dir", str(queue_dir),
                 "--max-attempts", "3"]) == 1
    assert "max_attempts=5" in capsys.readouterr().err
    assert queue.attempts("doomed") == 0
    assert main(["worker", "--queue-dir", str(queue_dir), "--poll", "0"]) == 0
    assert queue.failure_details()["doomed"]["attempts"] == 5


class _Captured(Exception):
    """Carries the parser ``main`` builds out of its ``parse_args``."""


def _capture(self, args=None, namespace=None):
    raise _Captured(self)


def _surface(parser) -> list:
    rows = []
    for action in parser._actions:
        choices = action.choices
        if choices is not None:
            choices = tuple(sorted(choices) if isinstance(choices, dict)
                            else choices)
        rows.append((
            tuple(action.option_strings),
            action.dest,
            action.default,
            getattr(action.type, "__name__", None),
            choices,
            action.nargs,
        ))
    return sorted(rows, key=repr)


def test_cli_surface_is_unchanged(monkeypatch):
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", _capture)
    with pytest.raises(_Captured) as captured:
        main([])
    parser = captured.value.args[0]
    commands = next(
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ).choices
    surface = {"repro": _surface(parser)}
    surface.update({name: _surface(sub) for name, sub in commands.items()})
    assert sorted(surface) == sorted(CLI_SURFACE)
    for name, rows in CLI_SURFACE.items():
        assert surface[name] == rows, name


# The released CLI surface: every row here is a user-visible contract.
CLI_SURFACE = {
    'decode': [
        (('--codec',), 'codec', None, None, None, None),
        (('--config',), 'config', None, None, None, None),
        (('--json',), 'json', False, None, None, 0),
        (('--on-error',), 'on_error', 'raise', None, ('raise', 'skip'), None),
        (('--progress',), 'progress', False, None, None, 0),
        (('--reference',), 'reference', None, None, None, None),
        (('-h', '--help'), 'help', '==SUPPRESS==', None, None, 0),
        (('-o', '--output'), 'output', None, None, None, None),
        ((), 'bitstream', None, None, None, None),
    ],
    'dse': [
        (('--bundle',), 'bundle', 'auto', '_bundle_arg', None, None),
        (('--channels',), 'channels', None, 'int', None, None),
        (('--csv',), 'csv', None, None, None, None),
        (('--frequencies',), 'frequencies', None, None, None, None),
        (('--frequency',), 'frequency', None, 'float', None, None),
        (('--geometries',), 'geometries', None, None, None, None),
        (('--grid',),
         'grid',
         'geometry',
         None,
         ('geometry', 'sparsity', 'frequency'),
         None),
        (('--height',), 'height', 1080, 'int', None, None),
        (('--json',), 'json', False, None, None, 0),
        (('--lease',), 'lease', 120.0, 'float', None, None),
        (('--max-attempts',), 'max_attempts', 3, 'int', None, None),
        (('--metrics-out',), 'metrics_out', None, None, None, None),
        (('--pareto',), 'pareto', False, None, None, 0),
        (('--pif',), 'pif', None, 'int', None, None),
        (('--platform',), 'platform', 'nvca', None, None, None),
        (('--pof',), 'pof', None, 'int', None, None),
        (('--progress',), 'progress', False, None, None, 0),
        (('--queue-dir',), 'queue_dir', None, None, None, None),
        (('--queue-url',), 'queue_url', None, None, None, None),
        (('--resume',), 'resume', False, None, None, 0),
        (('--rho',), 'rho', None, 'float', None, None),
        (('--rhos',), 'rhos', None, None, None, None),
        (('--trace-out',), 'trace_out', None, None, None, None),
        (('--width',), 'width', 1920, 'int', None, None),
        (('--workers',), 'workers', 2, 'int', None, None),
        (('-h', '--help'), 'help', '==SUPPRESS==', None, None, 0),
        (('-o', '--output'), 'output', None, None, None, None),
    ],
    'encode': [
        (('--channels',), 'channels', 12, 'int', None, None),
        (('--codec',), 'codec', 'ctvc', None, None, None),
        (('--entropy-backend',), 'entropy_backend', None, None, None, None),
        (('--fps',), 'fps', None, 'float', None, None),
        (('--frames',), 'frames', 4, 'int', None, None),
        (('--height',), 'height', 64, 'int', None, None),
        (('--input',), 'input', None, None, None, None),
        (('--json',), 'json', False, None, None, 0),
        (('--msssim',), 'msssim', False, None, None, 0),
        (('--progress',), 'progress', False, None, None, 0),
        (('--qp',), 'qp', 8.0, 'float', None, None),
        (('--rate-control',), 'rate_control', None, None, None, None),
        (('--stream',), 'stream', False, None, None, 0),
        (('--target-kbps',), 'target_kbps', None, 'float', None, None),
        (('--width',), 'width', 96, 'int', None, None),
        (('-h', '--help'), 'help', '==SUPPRESS==', None, None, 0),
        (('-o', '--output'), 'output', None, None, None, None),
    ],
    'failures': [
        (('--json',), 'json', False, None, None, 0),
        (('--queue-dir',), 'queue_dir', None, None, None, None),
        (('--queue-url',), 'queue_url', None, None, None, None),
        (('-h', '--help'), 'help', '==SUPPRESS==', None, None, 0),
        (('-o', '--output'), 'output', None, None, None, None),
        (('-v', '--verbose'), 'verbose', False, None, None, 0),
    ],
    'hardware': [
        (('--channels',), 'channels', None, 'int', None, None),
        (('--config',), 'config', None, None, None, None),
        (('--frequency',), 'frequency', None, 'float', None, None),
        (('--height',), 'height', 1080, 'int', None, None),
        (('--json',), 'json', False, None, None, 0),
        (('--pif',), 'pif', None, 'int', None, None),
        (('--platform',), 'platform', 'nvca', None, None, None),
        (('--pof',), 'pof', None, 'int', None, None),
        (('--rho',), 'rho', None, 'float', None, None),
        (('--technology',), 'technology', None, 'int', None, None),
        (('--width',), 'width', 1920, 'int', None, None),
        (('-h', '--help'), 'help', '==SUPPRESS==', None, None, 0),
        (('-o', '--output'), 'output', None, None, None, None),
    ],
    'ladder': [
        (('--bundle',), 'bundle', 'auto', '_bundle_arg', None, None),
        (('--codec',), 'codec', 'classical', None, None, None),
        (('--config',), 'config', None, None, None, None),
        (('--csv',), 'csv', None, None, None, None),
        (('--entropy-backend',), 'entropy_backend', None, None, None, None),
        (('--fps',), 'fps', 30.0, 'float', None, None),
        (('--frames',), 'frames', 8, 'int', None, None),
        (('--json',), 'json', False, None, None, 0),
        (('--lease',), 'lease', 120.0, 'float', None, None),
        (('--max-attempts',), 'max_attempts', 3, 'int', None, None),
        (('--metrics-out',), 'metrics_out', None, None, None, None),
        (('--msssim',), 'msssim', False, None, None, 0),
        (('--progress',), 'progress', False, None, None, 0),
        (('--qp',), 'qp', None, 'float', None, None),
        (('--queue-dir',), 'queue_dir', None, None, None, None),
        (('--queue-url',), 'queue_url', None, None, None, None),
        (('--rate-control',), 'rate_control', 'calibrated', None, None, None),
        (('--renditions',),
         'renditions',
         '96x64:30,96x64:60,48x32:8,48x32:16',
         None,
         None,
         None),
        (('--resume',), 'resume', False, None, None, 0),
        (('--seed',), 'seed', 0, 'int', None, None),
        (('--trace-out',), 'trace_out', None, None, None, None),
        (('--workers',), 'workers', 2, 'int', None, None),
        (('-h', '--help'), 'help', '==SUPPRESS==', None, None, 0),
        (('-o', '--output'), 'output', None, None, None, None),
    ],
    'repro': [
        (('--version',), 'version', '==SUPPRESS==', None, None, 0),
        (('-h', '--help'), 'help', '==SUPPRESS==', None, None, 0),
        ((),
         'command',
         None,
         None,
         ('decode',
          'dse',
          'encode',
          'failures',
          'hardware',
          'ladder',
          'reproduce',
          'retry',
          'serve',
          'sweep',
          'trace',
          'worker'),
         'A...'),
    ],
    'reproduce': [
        (('--full',), 'full', False, None, None, 0),
        (('--json',), 'json', False, None, None, 0),
        (('-h', '--help'), 'help', '==SUPPRESS==', None, None, 0),
        (('-o', '--output'), 'output', None, None, None, None),
    ],
    'retry': [
        (('--all',), 'all', False, None, None, 0),
        (('--json',), 'json', False, None, None, 0),
        (('--queue-dir',), 'queue_dir', None, None, None, None),
        (('--queue-url',), 'queue_url', None, None, None, None),
        (('-h', '--help'), 'help', '==SUPPRESS==', None, None, 0),
        (('-o', '--output'), 'output', None, None, None, None),
        ((), 'job_ids', None, None, None, '*'),
    ],
    'serve': [
        (('--autoscale',), 'autoscale', False, None, None, 0),
        (('--backlog-per-worker',), 'backlog_per_worker', 4, 'int', None, None),
        (('--bundle',), 'bundle', 1, 'int', None, None),
        (('--cooldown',), 'cooldown', 2.0, 'float', None, None),
        (('--host',), 'host', '127.0.0.1', None, None, None),
        (('--lease',), 'lease', 120.0, 'float', None, None),
        (('--max-attempts',), 'max_attempts', 3, 'int', None, None),
        (('--max-workers',), 'max_workers', 4, 'int', None, None),
        (('--min-workers',), 'min_workers', 0, 'int', None, None),
        (('--port',), 'port', 8642, 'int', None, None),
        (('--queue-dir',), 'queue_dir', None, None, None, None),
        (('-h', '--help'), 'help', '==SUPPRESS==', None, None, 0),
    ],
    'sweep': [
        (('--anchor',), 'anchor', 'auto', None, None, None),
        (('--bundle',), 'bundle', 'auto', '_bundle_arg', None, None),
        (('--channels',), 'channels', None, 'int', None, None),
        (('--codecs',), 'codecs', 'classical,ctvc', None, None, None),
        (('--csv',), 'csv', None, None, None, None),
        (('--entropy-backend',), 'entropy_backend', None, None, None, None),
        (('--frames',), 'frames', 4, 'int', None, None),
        (('--height',), 'height', 64, 'int', None, None),
        (('--json',), 'json', False, None, None, 0),
        (('--lease',), 'lease', 120.0, 'float', None, None),
        (('--max-attempts',), 'max_attempts', 3, 'int', None, None),
        (('--metric',), 'metric', 'psnr', None, ('psnr', 'ms-ssim'), None),
        (('--metrics-out',), 'metrics_out', None, None, None, None),
        (('--msssim',), 'msssim', False, None, None, 0),
        (('--progress',), 'progress', False, None, None, 0),
        (('--qps',), 'qps', '8,16', None, None, None),
        (('--queue-dir',), 'queue_dir', None, None, None, None),
        (('--queue-url',), 'queue_url', None, None, None, None),
        (('--resume',), 'resume', False, None, None, 0),
        (('--seeds',), 'seeds', '0', None, None, None),
        (('--trace-out',), 'trace_out', None, None, None, None),
        (('--width',), 'width', 96, 'int', None, None),
        (('--workers',), 'workers', 2, 'int', None, None),
        (('-h', '--help'), 'help', '==SUPPRESS==', None, None, 0),
        (('-o', '--output'), 'output', None, None, None, None),
    ],
    'trace': [
        (('--json',), 'json', False, None, None, 0),
        (('--max-roots',), 'max_roots', None, 'int', None, None),
        (('-h', '--help'), 'help', '==SUPPRESS==', None, None, 0),
        (('-o', '--output'), 'output', None, None, None, None),
        ((), 'trace_file', None, None, None, None),
    ],
    'worker': [
        (('--bundle',), 'bundle', 1, 'int', None, None),
        (('--forever',), 'forever', False, None, None, 0),
        (('--id',), 'id', None, None, None, None),
        (('--job-timeout',), 'job_timeout', None, 'float', None, None),
        (('--lease',), 'lease', 120.0, 'float', None, None),
        (('--max-attempts',), 'max_attempts', 3, 'int', None, None),
        (('--max-jobs',), 'max_jobs', None, 'int', None, None),
        (('--poll',), 'poll', 0.05, 'float', None, None),
        (('--queue-dir',), 'queue_dir', None, None, None, None),
        (('--queue-url',), 'queue_url', None, None, None, None),
        (('-h', '--help'), 'help', '==SUPPRESS==', None, None, 0),
    ],
}
