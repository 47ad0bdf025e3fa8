#include "workloads/workload_factory.hh"

#include "base/logging.hh"
#include "base/str.hh"
#include "workloads/fimi.hh"
#include "workloads/mds.hh"
#include "workloads/plsa.hh"
#include "workloads/rsearch.hh"
#include "workloads/shot.hh"
#include "workloads/snp.hh"
#include "workloads/svm_rfe.hh"
#include "workloads/viewtype.hh"

namespace cosim {

const std::vector<WorkloadInfo>&
workloadCatalog()
{
    static const std::vector<WorkloadInfo> catalog = {
        {"SNP", "600k sequences, each with length 50",
         "30MB, real datasets from HGBASE",
         "synthetic genotype matrix from a planted Markov chain "
         "(hot candidate columns + full matrix)"},
        {"SVM-RFE", "253 tissue samples, each with 15k genes",
         "30MB, real micro-array dataset on Cancer",
         "synthetic two-class expression matrix with planted "
         "informative genes"},
        {"MDS", "220 pages with 25k sequences",
         "4.1M, synthetic dataset from web search document",
         "synthetic sentence-similarity CSR matrix (~300MB compressed) "
         "+ query affinities"},
        {"SHOT", "10-min MPEG-2 video", "200MB, 720x576 resolution",
         "procedurally synthesized 720x576 clip with planted cuts "
         "every 9 frames"},
        {"FIMI", "990k transactions and mini-support=800",
         "30MB, real dataset Kosarak",
         "Zipf-distributed synthetic transactions (Kosarak-like skew)"},
        {"VIEWTYPE", "10-min MPEG-2 video", "200MB, 720x576 resolution",
         "procedurally synthesized clip with planted view types per "
         "shot"},
        {"PLSA", "two sequences in 30k length",
         "60KB, real DNA sequences from Gene bank",
         "synthetic DNA pair with a planted exact common subsequence"},
        {"RSEARCH", "100MB database, search sequence size 100",
         "100MB, real datasets from Gene bank",
         "synthetic nucleotide database with planted RNA hairpins"},
    };
    return catalog;
}

std::vector<std::string>
workloadNames()
{
    std::vector<std::string> names;
    for (const auto& info : workloadCatalog())
        names.push_back(info.name);
    return names;
}

std::string
canonicalWorkloadName(const std::string& name)
{
    std::string n = toLower(name);
    if (n == "svmrfe" || n == "svm_rfe")
        n = "svm-rfe";
    for (const auto& info : workloadCatalog()) {
        if (toLower(info.name) == n)
            return info.name;
    }
    return name;
}

std::unique_ptr<Workload>
createWorkload(const std::string& name, double scale)
{
    const std::string n = canonicalWorkloadName(name);
    if (n == "SNP")
        return std::make_unique<SnpWorkload>(SnpParams::scaled(scale));
    if (n == "SVM-RFE")
        return std::make_unique<SvmRfeWorkload>(
            SvmRfeParams::scaled(scale));
    if (n == "MDS")
        return std::make_unique<MdsWorkload>(MdsParams::scaled(scale));
    if (n == "SHOT")
        return std::make_unique<ShotWorkload>(ShotParams::scaled(scale));
    if (n == "FIMI")
        return std::make_unique<FimiWorkload>(FimiParams::scaled(scale));
    if (n == "VIEWTYPE")
        return std::make_unique<ViewtypeWorkload>(
            ViewtypeParams::scaled(scale));
    if (n == "PLSA")
        return std::make_unique<PlsaWorkload>(PlsaParams::scaled(scale));
    if (n == "RSEARCH")
        return std::make_unique<RsearchWorkload>(
            RsearchParams::scaled(scale));
    fatal("unknown workload '%s'", name.c_str());
}

} // namespace cosim
