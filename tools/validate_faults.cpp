// Validator for hetcomm.fault.v1 degradation plans (the files under
// faults/ and anything a serve request names via "faults").
//
// Usage: validate_faults FILE...
//
// Each file must load through the strict fault::load_fault_file parser
// (schema tag, known keys, probabilities in [0, 1], retry budgets sane)
// and must compile against at least one machine preset -- a plan whose
// paths or lanes exist on no shipped machine is dead configuration, and
// the serve chaos harness would silently lose its FaultAbort phase.
// Exits non-zero with a one-line diagnostic on the first violation.

#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/fault_json.hpp"
#include "fault/plan.hpp"
#include "machine/machine.hpp"
#include "validate_common.hpp"

namespace {

constexpr int kNodes = 2;  ///< smallest multi-node fabric; every path kind

void validate_file(const std::string& file) {
  const hetcomm::fault::FaultPlan plan = hetcomm::fault::load_fault_file(file);
  std::vector<std::string> rejected;
  std::string accepted;
  for (const std::string& name : hetcomm::machine::preset_machine_names()) {
    const hetcomm::machine::MachineModel machine =
        hetcomm::machine::preset_machine(name);
    try {
      (void)plan.compile(machine.topology(kNodes), machine.params);
      if (accepted.empty()) accepted = name;
    } catch (const std::exception& e) {
      rejected.push_back(name + " (" + e.what() + ")");
    }
  }
  if (accepted.empty()) {
    std::string what = file + ": no machine preset accepts this plan:";
    for (const std::string& r : rejected) what += "\n  " + r;
    throw std::runtime_error(what);
  }
  std::cout << file << ": OK (\"" << plan.name << "\", compiles on "
            << accepted << ")\n";
}

}  // namespace

int main(int argc, char** argv) {
  return hetcomm::validate::run("validate_faults", argc, argv, validate_file);
}
