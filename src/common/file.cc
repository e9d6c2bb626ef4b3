#include "common/file.h"

#include <cstdio>

namespace deco {

Status WriteFile(const std::string& path, std::string_view content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IOError("cannot open " + path + " for writing");
  }
  const size_t written = std::fwrite(content.data(), 1, content.size(), f);
  const bool close_ok = std::fclose(f) == 0;
  if (written != content.size() || !close_ok) {
    return Status::IOError("short write to " + path);
  }
  return Status::OK();
}

}  // namespace deco
