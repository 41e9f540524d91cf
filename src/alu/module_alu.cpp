#include "alu/module_alu.hpp"

#include <cassert>
#include <initializer_list>
#include <utility>
#include <vector>

#include "alu/module_plan.hpp"
#include "fault/defect_map.hpp"
#include "obs/counters.hpp"

namespace nbx {

namespace {

// Builds `g` once: the golden storage of `cores` (the physical replicas,
// in defect-space order) followed by the voter's, spliced word-wide.
const ModuleGolden& build_golden(ModuleGolden& g,
                                 std::initializer_list<const CoreAlu*> cores,
                                 const IVoter* voter) {
  std::call_once(g.once, [&] {
    std::vector<BitVec> parts;
    for (const CoreAlu* c : cores) {
      parts.push_back(c->golden_storage());
    }
    if (voter != nullptr) {
      parts.push_back(voter->golden_storage());
    }
    std::size_t total = 0;
    for (const BitVec& p : parts) {
      total += p.size();
    }
    g.core_bits = parts.front().size();
    g.bits = BitVec(total);
    std::size_t at = 0;
    for (const BitVec& p : parts) {
      g.bits.splice(at, p);
      at += p.size();
    }
  });
  return g;
}

}  // namespace

SingleAlu::SingleAlu(std::string name, std::unique_ptr<CoreAlu> core)
    : name_(std::move(name)), core_(std::move(core)) {}

std::size_t SingleAlu::fault_sites() const { return core_->fault_sites(); }

AluOutput SingleAlu::compute(Opcode op, std::uint8_t a, std::uint8_t b,
                             MaskView mask, ModuleStats* stats) const {
  if (stats != nullptr) {
    ++stats->computations;
  }
  const CoreAlu* cores[1] = {core_.get()};
  plan::ScalarModuleExec ex{op, a, b, mask, stats, cores, nullptr, {}};
  plan::compute_single(ex);
  return ex.out;
}

const ModuleGolden& SingleAlu::golden() const {
  return build_golden(golden_, {core_.get()}, nullptr);
}

std::size_t SingleAlu::defectable_sites() const {
  return golden().bits.size();
}

BitVec SingleAlu::golden_storage() const { return golden().bits; }

void SingleAlu::impose_defects(const DefectMap& defects,
                               BitVec& mask) const {
  assert(defects.sites() == defectable_sites());
  assert(mask.size() == fault_sites());
  defects.impose(golden().bits, mask);
}

SpaceRedundantAlu::SpaceRedundantAlu(
    std::string name, std::vector<std::unique_ptr<CoreAlu>> cores,
    std::unique_ptr<IVoter> voter)
    : name_(std::move(name)), cores_(std::move(cores)),
      voter_(std::move(voter)) {
  assert(cores_.size() == 3);
  assert(cores_[0]->fault_sites() == cores_[1]->fault_sites() &&
         cores_[1]->fault_sites() == cores_[2]->fault_sites());
}

std::size_t SpaceRedundantAlu::fault_sites() const {
  return 3 * cores_[0]->fault_sites() + voter_->fault_sites();
}

AluOutput SpaceRedundantAlu::compute(Opcode op, std::uint8_t a,
                                     std::uint8_t b, MaskView mask,
                                     ModuleStats* stats) const {
  if (stats != nullptr) {
    ++stats->computations;
  }
  const CoreAlu* cores[3] = {cores_[0].get(), cores_[1].get(),
                             cores_[2].get()};
  plan::ScalarModuleExec ex{op, a, b, mask, stats, cores, voter_.get(), {}};
  plan::compute_space(ex);
  return ex.out;
}

const ModuleGolden& SpaceRedundantAlu::golden() const {
  return build_golden(golden_,
                      {cores_[0].get(), cores_[1].get(), cores_[2].get()},
                      voter_.get());
}

std::size_t SpaceRedundantAlu::defectable_sites() const {
  return golden().bits.size();
}

BitVec SpaceRedundantAlu::golden_storage() const { return golden().bits; }

void SpaceRedundantAlu::impose_defects(const DefectMap& defects,
                                       BitVec& mask) const {
  assert(defects.sites() == defectable_sites());
  assert(mask.size() == fault_sites());
  const ModuleGolden& g = golden();
  const std::size_t storage = g.core_bits;
  const std::size_t sites = cores_[0]->fault_sites();
  // LUT cores: storage == sites, so defect space and mask space align
  // replica by replica. (CMOS cores have no storage; both are 0.)
  assert(storage == sites || storage == 0);
  for (std::size_t i = 0; i < 3; ++i) {
    defects.impose(g.bits, i * storage, storage, mask, i * sites);
  }
  defects.impose(g.bits, 3 * storage, g.bits.size() - 3 * storage, mask,
                 3 * sites);
}

TimeRedundantAlu::TimeRedundantAlu(std::string name,
                                   std::unique_ptr<CoreAlu> core,
                                   std::unique_ptr<IVoter> voter)
    : name_(std::move(name)), core_(std::move(core)),
      voter_(std::move(voter)) {}

std::size_t TimeRedundantAlu::fault_sites() const {
  return 3 * core_->fault_sites() + voter_->fault_sites() +
         kTimeRedundancyStorageBits;
}

const ModuleGolden& TimeRedundantAlu::golden() const {
  return build_golden(golden_, {core_.get()}, voter_.get());
}

std::size_t TimeRedundantAlu::defectable_sites() const {
  return golden().bits.size();
}

BitVec TimeRedundantAlu::golden_storage() const { return golden().bits; }

void TimeRedundantAlu::impose_defects(const DefectMap& defects,
                                      BitVec& mask) const {
  assert(defects.sites() == defectable_sites());
  assert(mask.size() == fault_sites());
  const ModuleGolden& g = golden();
  const std::size_t storage = g.core_bits;
  const std::size_t sites = core_->fault_sites();
  assert(storage == sites || storage == 0);
  // The SAME physical core runs all three passes: its defects land
  // identically in every pass segment, so the vote cannot outvote them.
  for (std::size_t pass = 0; pass < 3; ++pass) {
    defects.impose(g.bits, 0, storage, mask, pass * sites);
  }
  defects.impose(g.bits, storage, g.bits.size() - storage, mask,
                 3 * sites);
  // The 27 inter-operation storage bits hold dynamic values; they are
  // transient-fault sites only (not defectable storage in this model).
}

AluOutput TimeRedundantAlu::compute(Opcode op, std::uint8_t a,
                                    std::uint8_t b, MaskView mask,
                                    ModuleStats* stats) const {
  if (stats != nullptr) {
    ++stats->computations;
  }
  const CoreAlu* cores[1] = {core_.get()};
  plan::ScalarModuleExec ex{op, a, b, mask, stats, cores, voter_.get(), {}};
  plan::compute_time(ex);
  return ex.out;
}

}  // namespace nbx
