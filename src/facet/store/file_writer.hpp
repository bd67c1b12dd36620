/// \file file_writer.hpp
/// \brief The class store's one file-write primitive.
///
/// Every byte the store puts on disk — a saved or compacted base segment, a
/// rewritten delta log, an appended delta frame — goes through one of the
/// two calls below, so a failed write has one documented outcome per kind:
///
///   * replace_file — write-then-rename. The old file at the path survives
///     any failure untouched;
///   * append_file  — append in place. A failed append is truncated back to
///     the file's size before it, so no partial frame is left behind.
///
/// Neither call syncs to stable storage: they guarantee what survives a
/// failed write, not what survives a crash after a successful one.

#pragma once

#include <functional>
#include <iosfwd>
#include <string>

namespace facet {

/// Writes a file's new bytes into the stream it is handed.
using FileContents = std::function<void(std::ostream&)>;

/// Writes `contents` to `path + ".tmp"`, then renames it over `path`. On any
/// failure the temp file is removed, `path` is left as it was, and
/// StoreFormatError is thrown naming `what` ("store file", "delta log").
void replace_file(const std::string& path, const char* what, const FileContents& contents);

/// Appends `contents` to `path`, creating it if absent. If the write fails,
/// a regular file is truncated back to its size before the append and
/// StoreFormatError is thrown naming `what`.
void append_file(const std::string& path, const char* what, const FileContents& contents);

}  // namespace facet
