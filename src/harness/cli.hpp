/**
 * @file
 * Shared command-line parsing for the tools/diag_*.cpp CLIs.
 *
 * Every tool used to hand-roll the same argv loop (--jobs, --seed,
 * --json, --sarif, --config, "missing value for X", usage-on-unknown).
 * ArgParser is the declarative replacement: a tool registers its flags
 * against the fields of its options struct, and parse() handles value
 * fetching, numeric conversion, --help, unknown-flag diagnostics, and
 * the usage text — keeping the flag name, its help line, and its
 * target in one place.
 */
#ifndef DIAG_HARNESS_CLI_HPP
#define DIAG_HARNESS_CLI_HPP

#include <string>
#include <vector>

#include "asm/program.hpp"
#include "common/types.hpp"
#include "diag/config.hpp"

namespace diag::harness
{

/** Declarative argv parser; see the file comment for the contract. */
class ArgParser
{
  public:
    /** What main() should do after parse(). */
    enum class Status
    {
        Run,    //!< arguments consumed; run the tool
        Help,   //!< --help: usage printed, exit 0
        /** Bad invocation — unknown flag, duplicate flag, missing or
         *  malformed value, unexpected operand. parse() already
         *  printed a one-line "error: ..." plus the usage text;
         *  every tool exits 1 on this status. */
        Usage,
    };

    /**
     * @p tool is the program name for the synopsis line and
     * @p operands_name, when nonempty, names the bare (non-dash)
     * operands in the synopsis (e.g. "[program.s ...]").
     */
    ArgParser(std::string tool, std::string operands_name = "");

    /** --name (no value). */
    ArgParser &flag(std::string name, bool *target, std::string help);
    /** --name VALUE variants. */
    ArgParser &option(std::string name, std::string *target,
                      std::string metavar, std::string help);
    ArgParser &option(std::string name, unsigned *target,
                      std::string metavar, std::string help);
    ArgParser &option(std::string name, u64 *target,
                      std::string metavar, std::string help);
    ArgParser &option(std::string name, double *target,
                      std::string metavar, std::string help);
    /** Collect bare operands (file paths) into @p target; without
     *  this registration a bare operand is a usage error. */
    ArgParser &operands(std::vector<std::string> *target);

    // The flags every tool spells identically, help text included.
    ArgParser &configFlag(std::string *target);
    ArgParser &jobsFlag(unsigned *target);
    ArgParser &seedFlag(u64 *target);
    ArgParser &jsonFlag(bool *target);
    ArgParser &sarifFlag(bool *target);
    ArgParser &werrorFlag(bool *target);

    /** Print the synopsis and one help line per registered flag. */
    void usage() const;

    /**
     * Consume argv. Prints usage itself for Help/Usage outcomes;
     * Usage is additionally preceded by a one-line diagnostic on
     * stderr naming the offending flag or value. Every registered
     * flag may appear at most once (operands may repeat).
     */
    Status parse(int argc, char **argv) const;

  private:
    /** Print "tool: error: ..." + usage, and yield Status::Usage. */
    Status usageError(const char *fmt, ...) const
        __attribute__((format(printf, 2, 3)));

    struct Flag
    {
        enum class Kind : u8
        {
            Bool,
            String,
            Unsigned,
            U64,
            Double,
        };
        std::string name;
        Kind kind;
        void *target;
        std::string metavar;
        std::string help;
    };

    std::string tool_;
    std::string operands_name_;
    std::vector<Flag> flags_;
    std::vector<std::string> *operands_ = nullptr;

    ArgParser &add(std::string name, Flag::Kind kind, void *target,
                   std::string metavar, std::string help);
};

/**
 * The DiAG preset named on a --config flag (I4C2, F4C2, F4C16,
 * F4C32, and the multi-thread arrangements F4C32-16x2 and
 * F4C32-8x4-simt); fatal() on anything else. Shared by every tool.
 */
core::DiagConfig configByName(const std::string &name);

/**
 * Non-fatal preset lookup for long-running callers (the service
 * layer) that must classify a bad name as a malformed request
 * instead of exiting: true and *out filled when @p name is a known
 * preset, false otherwise.
 */
bool tryConfigByName(const std::string &name, core::DiagConfig *out);

/** @p base with its ring count overridden when @p rings != 0. */
core::DiagConfig configWithRings(const std::string &name,
                                 unsigned rings);

/** A `.s` file named on a tool's command line, read and assembled. */
struct AsmFile
{
    std::string source;
    Program program;
};

/**
 * Read and assemble the `.s` file at @p path. An unreadable file is
 * fatal(). A file that does not assemble prints "<path>: <message>"
 * on stderr and exits 1, the code fatal() uses, instead of letting
 * the assembler's exception abort the tool.
 */
AsmFile readAsmFile(const std::string &path);

} // namespace diag::harness

#endif // DIAG_HARNESS_CLI_HPP
