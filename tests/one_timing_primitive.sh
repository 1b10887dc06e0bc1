#!/bin/sh
# Span (src/obs/TraceSpans.h) is the one timing primitive: every span feeds
# the metrics registry timer of its name. This guard fails when the deleted
# RAII phase timer class reappears anywhere in the sources, or when src/
# reads the steady clock outside the span header and the thread pool's
# busy telemetry.
#
# usage: one_timing_primitive.sh SOURCE_ROOT
set -u
Root=${1:?usage: one_timing_primitive.sh SOURCE_ROOT}
cd "$Root" || exit 2
Status=0

Hits=$(grep -rn "ScopedTimer" src tools bench examples tests |
       grep -v "^tests/one_timing_primitive\.sh:")
if [ -n "$Hits" ]; then
  echo "ScopedTimer was deleted; time a region with a Span instead:"
  echo "$Hits"
  Status=1
fi

Hits=$(grep -rn "steady_clock::now" src |
       grep -v -e "^src/obs/TraceSpans\.h:" -e "^src/support/ThreadPool\.[^:]*:")
if [ -n "$Hits" ]; then
  echo "steady_clock::now outside obs/TraceSpans.h and support/ThreadPool;" \
       "time a region with a Span instead:"
  echo "$Hits"
  Status=1
fi

[ $Status -eq 0 ] && echo "one timing primitive: ok"
exit $Status
