#include "src/common/text_file.h"

#include <cstdio>
#include <filesystem>
#include <system_error>

namespace spotcheck {

bool WriteTextFile(const std::string& path, std::string_view text) {
  const std::filesystem::path file(path);
  if (file.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(file.parent_path(), ec);
    // An existing directory is fine; only the fopen below decides failure.
  }
  std::FILE* out = std::fopen(path.c_str(), "wb");
  if (out == nullptr) {
    return false;
  }
  const bool written =
      std::fwrite(text.data(), 1, text.size(), out) == text.size();
  const bool closed = std::fclose(out) == 0;
  return written && closed;
}

}  // namespace spotcheck
