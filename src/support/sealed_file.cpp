#include "support/sealed_file.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

#include "support/hash.hpp"

namespace socrates::sealed {

namespace fs = std::filesystem;

namespace {

std::string header_line(std::string_view magic, std::string_view version,
                        std::string_view tag, std::uint64_t size, std::uint64_t hash) {
  char hex[16];
  char* end = std::to_chars(hex, hex + sizeof hex, hash, 16).ptr;
  std::string line;
  line.append(magic).append(" ").append(version).append(" ").append(tag);
  return line.append(" ").append(std::to_string(size)).append(" ").append(hex, end);
}

}  // namespace

std::string seal(std::string_view magic, std::string_view version, std::string_view tag,
                 std::string_view payload) {
  std::string out = header_line(magic, version, tag, payload.size(), stable_hash64(payload));
  return out.append("\n").append(payload);
}

File read(const std::string& path, std::string_view magic, std::string_view version) {
  File file;
  std::ifstream in(path, std::ios::binary);
  if (!in) return file;
  const auto corrupt = [&file](const char* reason) {
    file.status = File::Status::kCorrupt;
    file.reason = reason;
    return file;
  };
  // The whole file is read and the size the header claims is only
  // compared with it, so a corrupt header cannot make the reader
  // allocate more than the file holds.
  std::error_code ec;
  const std::uintmax_t length = fs::file_size(path, ec);
  if (ec) return corrupt("not a regular file");
  std::string bytes(static_cast<std::size_t>(length), '\0');
  if (!in.read(bytes.data(), static_cast<std::streamsize>(length)))
    return corrupt("short read");
  const std::size_t newline = bytes.find('\n');
  if (newline == std::string::npos) return corrupt("no header line");
  const std::string line = bytes.substr(0, newline);
  std::istringstream fields(line);
  std::string got_magic, got_version, tag;
  std::uint64_t size = 0, hash = 0;
  fields >> got_magic >> got_version >> tag >> size >> std::hex >> hash;
  if (got_magic != magic) return corrupt("bad magic");
  if (got_version != version) return corrupt("bad version");
  // The canonical-form comparison rejects stray spaces, signs, leading
  // zeros and upper-case hex: one sealed state has one encoding.
  if (!fields || line != header_line(magic, version, tag, size, hash))
    return corrupt("malformed header");
  if (size != length - newline - 1) return corrupt("payload size does not match the file");
  bytes.erase(0, newline + 1);
  if (stable_hash64(bytes) != hash) return corrupt("payload checksum mismatch");
  file.status = File::Status::kOk;
  file.tag = std::move(tag);
  file.payload = std::move(bytes);
  return file;
}

std::string generation_path(const std::string& path, std::size_t generation) {
  return generation == 0 ? path : path + "." + std::to_string(generation);
}

void rotate_generations(const std::string& path, std::size_t n) {
  std::error_code ec;  // a missing generation is no error
  for (std::size_t g = n; g-- > 1;)
    fs::rename(generation_path(path, g - 1), generation_path(path, g), ec);
}

std::string tmp_path(const std::string& path) {
  return path + ".tmp." + std::to_string(::getpid());
}

std::string WriteStatus::message() const {
  constexpr const char* kSteps[] = {"ok", "open", "write", "rename"};
  return std::string(kSteps[static_cast<int>(failed)]) +
         (*this ? "" : ": " + std::generic_category().message(error));
}

WriteStatus write_tmp(const std::string& path, std::string_view bytes, bool fsync) {
  const std::string tmp = tmp_path(path);
  errno = 0;
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  if (!out) return {WriteStatus::Step::kOpen, errno};
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  if (out) {
    if (fsync) fsync_path(tmp);
    return {};
  }
  // A short temp file must never be published: drop it, keep what is in place.
  const int error = errno != 0 ? errno : EIO;
  std::error_code ec;
  fs::remove(tmp, ec);
  return {WriteStatus::Step::kWrite, error};
}

WriteStatus publish_tmp(const std::string& path, std::size_t generations, bool fsync) {
  rotate_generations(path, generations);
  std::error_code ec;
  fs::rename(tmp_path(path), path, ec);
  if (ec) {
    std::error_code ignored;
    fs::remove(tmp_path(path), ignored);
    return {WriteStatus::Step::kRename, ec.value()};
  }
  const fs::path dir = fs::path(path).parent_path();
  if (fsync) fsync_path(dir.empty() ? "." : dir.string());
  return {};
}

WriteStatus publish(const std::string& path, std::string_view bytes,
                    std::size_t generations, bool fsync) {
  const WriteStatus written = write_tmp(path, bytes, fsync);
  return written ? publish_tmp(path, generations, fsync) : written;
}

void fsync_path(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

std::size_t sweep_stale_tmps(const std::string& owner) {
  const fs::path dir = fs::path(owner).parent_path();
  const std::string name = fs::path(owner).filename().string();
  const bool any_prefix = name.starts_with('*');
  const std::string_view suffix = std::string_view(name).substr(any_prefix ? 1 : 0);
  std::size_t swept = 0;
  std::error_code ec;
  for (fs::directory_iterator it(dir.empty() ? "." : dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    const std::string file = it->path().filename().string();
    const std::size_t at = file.rfind(".tmp.");
    if (at == std::string::npos || at + 5 == file.size()) continue;
    const std::string_view stem = std::string_view(file).substr(0, at);
    std::error_code ignored;
    if ((any_prefix ? stem.ends_with(suffix) : stem == suffix) &&
        std::all_of(file.begin() + static_cast<std::ptrdiff_t>(at + 5), file.end(),
                    [](unsigned char c) { return std::isdigit(c) != 0; }) &&
        it->is_regular_file(ignored) && fs::remove(it->path(), ignored))
      ++swept;
  }
  return swept;
}

}  // namespace socrates::sealed
