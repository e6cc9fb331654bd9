import sys

from ops import Spawner


def test_children_report_their_own_peak_rss():
    ballast = bytearray(64 * 2**20)          # touch it, so that it is resident
    for i in range(0, len(ballast), 4096):
        ballast[i] = 1
    spawner = Spawner(None)
    code, stdout, stderr, wall = spawner.run(
        [sys.executable, "-S", "-c", "print('hi')"])
    peak_mb = spawner.close() / 1024.0
    assert (code, stdout.strip(), stderr) == (0, "hi", "")
    assert wall > 0
    assert peak_mb < 40, "the child's peak RSS includes this process's"
    assert spawner.proc.returncode == 0
