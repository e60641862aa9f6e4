// Per-process scratch directory for tests and benches that write files.
//
// gtest_discover_tests runs every TEST as its own process and `ctest -j`
// runs those processes concurrently, as do two test or bench runs sharing
// one host. A fixed name under the system temp directory is shared by all
// of them (one process's cleanup deletes another's files); a directory made
// with mkdtemp belongs to one process.
#pragma once

#include <stdlib.h>

#include <filesystem>
#include <stdexcept>
#include <string>
#include <system_error>

namespace ac::test_support {

/// This process's own directory under the system temp directory: made with
/// mkdtemp on first use, removed with everything in it at process exit.
inline const std::filesystem::path& process_temp_dir() {
    struct owned_dir {
        std::filesystem::path path;
        owned_dir() {
            std::string name =
                (std::filesystem::temp_directory_path() / "ac_test_XXXXXX").string();
            if (::mkdtemp(name.data()) == nullptr) {
                throw std::runtime_error("mkdtemp failed for " + name);
            }
            path = name;
        }
        ~owned_dir() {
            std::error_code ignored;
            std::filesystem::remove_all(path, ignored);
        }
    };
    static const owned_dir dir;
    return dir.path;
}

} // namespace ac::test_support
