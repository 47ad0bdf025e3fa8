/**
 * Seeded violations (with mem/second.cc and the manifest next door):
 *   - "dup.site" is declared here AND in mem/second.cc
 *     (duplicate-fault-site);
 *   - "not.in.registry" is a fault site missing from
 *     fault_sites.txt (unregistered-fault-site);
 *   - the manifest lists "ghost.site", which no code declares
 *     (stale-registry-entry).
 */

#include "base/fault.hh"

namespace cosim {

int
firstUser()
{
    COSIM_FAULT_POINT("dup.site");
    COSIM_FAULT_POINT("not.in.registry");
    return 0;
}

} // namespace cosim
