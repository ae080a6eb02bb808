"""Run a command, print its peak RSS and exit with its code: python peak_rss.py CMD [ARG...]."""
import resource
import subprocess
import sys

rc = subprocess.call(sys.argv[1:])
print(f"peak RSS {resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024:.0f} MB")
sys.exit(rc)
