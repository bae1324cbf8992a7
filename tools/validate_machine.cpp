// Validator for hetcomm.machine.v1 machine-description files.
//
// Usage: validate_machine FILE...
//
// Loads each file through the strict machine_json parser -- which enforces
// the schema tag, required fields, taxonomy coverage, postal-table
// completeness, and MachineModel::validate()'s monotonicity and
// taxonomy/shape consistency checks -- and then round-trips it through
// to_json to prove the document re-serializes losslessly.  Exits non-zero
// with a one-line diagnostic on the first violation so a malformed file in
// machines/ fails the pipeline instead of shipping.

#include <iostream>
#include <stdexcept>
#include <string>

#include "machine/machine_json.hpp"
#include "validate_common.hpp"

namespace {

void validate_file(const std::string& file) {
  const hetcomm::machine::MachineModel model =
      hetcomm::machine::load_machine_file(file);

  // Round-trip: export and re-parse.  A model that loads but cannot be
  // reproduced from its own export would break the bit-identity contract
  // (tests/test_machine.cpp) for anyone editing the file downstream.
  const hetcomm::machine::MachineModel again =
      hetcomm::machine::machine_from_json(hetcomm::machine::to_json(model));
  if (again.name != model.name ||
      again.params.taxonomy.num_classes() !=
          model.params.taxonomy.num_classes()) {
    throw std::runtime_error(file + ": export/re-parse round trip diverged");
  }

  std::cout << file << ": OK (machine '" << model.name << "', "
            << model.params.taxonomy.num_classes() << " path classes)\n";
}

}  // namespace

int main(int argc, char** argv) {
  return hetcomm::validate::run("validate_machine", argc, argv, validate_file);
}
