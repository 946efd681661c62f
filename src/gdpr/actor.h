// The paper's four GDPR roles (§4.1): the controller (the service), the
// customer (data subject), processors (third parties acting with a declared
// purpose), and the regulator.

#pragma once

#include <string>
#include <utility>

namespace gdpr {

struct Actor {
  enum class Role { kController, kCustomer, kProcessor, kRegulator };

  Role role = Role::kController;
  std::string id;       // customer id == the data subject's user id
  std::string purpose;  // processors act under a declared purpose

  static Actor Controller(std::string id = "controller") {
    return {Role::kController, std::move(id), ""};
  }
  static Actor Customer(std::string user_id) {
    return {Role::kCustomer, std::move(user_id), ""};
  }
  static Actor Processor(std::string id, std::string purpose) {
    return {Role::kProcessor, std::move(id), std::move(purpose)};
  }
  static Actor Regulator(std::string id = "regulator") {
    return {Role::kRegulator, std::move(id), ""};
  }
};

}  // namespace gdpr
