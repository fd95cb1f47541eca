#!/bin/sh
# Fails on any `unsafe {` / `unsafe impl` / `unsafe fn` with no `SAFETY`
# comment or `# Safety` doc section within the six lines above it.
find crates shims src tests examples -name '*.rs' | xargs awk '
  FNR == 1 { for (i in w) delete w[i] }
  /unsafe (\{|impl|fn)/ && $0 !~ /^[ \t]*\/\// {
    ok = 0
    for (i = FNR - 6; i < FNR; i++) if (w[i] ~ /SAFETY|# Safety/) ok = 1
    if (!ok) { printf "%s:%d: unsafe without a stated invariant: %s\n", FILENAME, FNR, $0; bad = 1 }
  }
  { w[FNR] = $0 }
  END { exit bad }
'
