/// \file frontend.hpp
/// Where program text enters: decide its language once and load it into a
/// QIR module through the matching frontend. `qirkit run`, `compile`,
/// `translate` and serve's program registry all load through here.
#pragma once

#include "ir/context.hpp"
#include "ir/module.hpp"
#include "qir/exporter.hpp"

#include <memory>
#include <string_view>

namespace qirkit::qasm {

enum class Language { Qir, Qasm2, Qasm3 };

/// The language of \p text. A `.ll` \p pathHint means QIR and a `.qasm`
/// hint means OpenQASM; otherwise the text is OpenQASM exactly when its
/// first token, after whitespace and `;`, `//` and `/* */` comments, is
/// `OPENQASM`. An OpenQASM header `OPENQASM 3` selects version 3; any
/// other version, or no header at all, selects version 2.
[[nodiscard]] Language detectLanguage(std::string_view text,
                                      std::string_view pathHint = {});

/// Load \p text in its detected language: QIR is parsed, OpenQASM 3 is
/// compiled to QIR, OpenQASM 2 is exported with \p addressing. Frontend
/// errors propagate as located qirkit::ParseError.
[[nodiscard]] std::unique_ptr<ir::Module>
loadModule(ir::Context& context, std::string_view text,
           std::string_view pathHint, qir::Addressing addressing);

} // namespace qirkit::qasm
