#pragma once

#include <string>
#include <string_view>

#include "common/status.h"

/// \file file.h
/// \brief Whole-file output shared by every artifact writer (telemetry,
/// traces, provenance, bench records, /metrics dumps, flight records).

namespace deco {

/// \brief Replaces `path` with `content`. IOError `cannot open <path> for
/// writing` when the file cannot be created, `short write to <path>` when
/// the write or the final flush on close fails.
Status WriteFile(const std::string& path, std::string_view content);

}  // namespace deco
