#include "facet/store/file_writer.hpp"

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <system_error>

#include "facet/store/store_format.hpp"

namespace facet {

void replace_file(const std::string& path, const char* what, const FileContents& contents)
{
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os{tmp, std::ios::binary | std::ios::trunc};
    if (!os) {
      throw StoreFormatError{std::string{"cannot open "} + what + " for writing: " + tmp};
    }
    contents(os);
    os.flush();
    if (!os) {
      std::remove(tmp.c_str());
      throw StoreFormatError{std::string{what} + " write failed: " + tmp};
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw StoreFormatError{std::string{"cannot move finished "} + what + " into place: " + path};
  }
}

void append_file(const std::string& path, const char* what, const FileContents& contents)
{
  // The size a failed append truncates back to: 0 for an absent file, none
  // for a file that has no size (a device).
  std::error_code ec;
  std::optional<std::uintmax_t> before;
  const std::filesystem::file_type type = std::filesystem::status(path, ec).type();
  if (type == std::filesystem::file_type::not_found) {
    before = 0;
  } else if (type == std::filesystem::file_type::regular) {
    if (const std::uintmax_t size = std::filesystem::file_size(path, ec); !ec) {
      before = size;
    }
  }

  std::ofstream os{path, std::ios::binary | std::ios::app};
  if (!os) {
    throw StoreFormatError{std::string{"cannot open "} + what + " for appending: " + path};
  }
  contents(os);
  os.flush();
  if (os) {
    return;
  }
  os.close();
  std::string message = std::string{what} + " append failed: " + path;
  if (before) {
    std::filesystem::resize_file(path, *before, ec);
    if (ec) {
      message += " (and truncating it back failed: " + ec.message() + ")";
    }
  }
  throw StoreFormatError{message};
}

}  // namespace facet
