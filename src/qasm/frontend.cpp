#include "qasm/frontend.hpp"

#include "ir/parser.hpp"
#include "qasm/parser.hpp"
#include "qasm/qasm3.hpp"
#include "support/string_utils.hpp"

#include <cctype>

namespace qirkit::qasm {

namespace {

/// \p text from its first token on: leading whitespace and `;`, `//` and
/// `/* */` comments dropped.
std::string_view skipLeadingComments(std::string_view text) {
  while (!text.empty()) {
    if (std::isspace(static_cast<unsigned char>(text.front())) != 0) {
      text.remove_prefix(1);
    } else if (text.starts_with(";") || text.starts_with("//")) {
      const auto eol = text.find('\n');
      text.remove_prefix(eol == std::string_view::npos ? text.size() : eol);
    } else if (text.starts_with("/*")) {
      const auto end = text.find("*/", 2);
      text.remove_prefix(end == std::string_view::npos ? text.size() : end + 2);
    } else {
      break;
    }
  }
  return text;
}

} // namespace

Language detectLanguage(std::string_view text, std::string_view pathHint) {
  if (pathHint.ends_with(".ll")) {
    return Language::Qir;
  }
  constexpr std::string_view kHeader = "OPENQASM";
  const std::string_view rest = skipLeadingComments(text);
  if (!rest.starts_with(kHeader)) {
    return pathHint.ends_with(".qasm") ? Language::Qasm2 : Language::Qir;
  }
  return trim(rest.substr(kHeader.size())).starts_with('3') ? Language::Qasm3
                                                             : Language::Qasm2;
}

std::unique_ptr<ir::Module> loadModule(ir::Context& context, std::string_view text,
                                       std::string_view pathHint,
                                       qir::Addressing addressing) {
  const Language language = detectLanguage(text, pathHint);
  if (language == Language::Qasm3) {
    return compileQasm3(context, text);
  }
  if (language == Language::Qasm2) {
    return qir::exportCircuit(context, parse(text), {.addressing = addressing});
  }
  return ir::parseModule(context, text,
                         pathHint.empty() ? "module" : std::string(pathHint));
}

} // namespace qirkit::qasm
