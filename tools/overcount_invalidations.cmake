# Writes a copy of a JSON report whose first point counts one invalidated
# cache block more than its update and migration ledgers account for:
# cache_total.invalidated_blocks and per_lc[0].cache.invalidated_blocks
# each gain one, so the per-LC sums still match and only the rule
# cache_total.invalidated_blocks == update.blocks_invalidated +
# failover.migration_invalidated_blocks breaks. A `spal_report --check`
# that passes the copy cannot see an unledgered invalidation.
#
# Usage: cmake -DIN=report.json -DOUT=canary.json -P overcount_invalidations.cmake
cmake_minimum_required(VERSION 3.19)  # string(JSON)

file(READ "${IN}" report)
foreach(cache IN ITEMS "cache_total" "per_lc;0;cache")
  string(JSON blocks GET "${report}" points 0 result ${cache}
         invalidated_blocks)
  math(EXPR blocks "${blocks} + 1")
  string(JSON report SET "${report}" points 0 result ${cache}
         invalidated_blocks ${blocks})
endforeach()
file(WRITE "${OUT}" "${report}")
