/**
 * @file
 * Creation of the eight data-mining workloads by name.
 */

#ifndef COSIM_WORKLOADS_WORKLOAD_FACTORY_HH
#define COSIM_WORKLOADS_WORKLOAD_FACTORY_HH

#include <memory>
#include <string>
#include <vector>

#include "softsdv/guest.hh"

namespace cosim {

/** Table 1 information for one workload. */
struct WorkloadInfo
{
    std::string name;
    std::string paperParameters; ///< Table 1 "Parameters" column
    std::string paperInput;      ///< Table 1 "Size of Data Input" column
    std::string substitution;    ///< what this reproduction uses instead
};

/** The eight workloads in the paper's Table 2 order. */
const std::vector<WorkloadInfo>& workloadCatalog();

/** Names only, in the same order. */
std::vector<std::string> workloadNames();

/**
 * The catalog spelling of a (case-insensitive) workload name or alias,
 * e.g. "svm_rfe" -> "SVM-RFE"; an unknown name comes back unchanged.
 */
std::string canonicalWorkloadName(const std::string& name);

/**
 * Instantiate a workload by (case-insensitive) name with inputs derived
 * from @p scale (1.0 = the default reproduction input). fatal() on an
 * unknown name.
 */
std::unique_ptr<Workload> createWorkload(const std::string& name,
                                         double scale = 1.0);

} // namespace cosim

#endif // COSIM_WORKLOADS_WORKLOAD_FACTORY_HH
