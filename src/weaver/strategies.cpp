#include "weaver/strategies.hpp"

#include <sstream>

#include "ir/parser.hpp"
#include "ir/printer.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace socrates::weaver {

namespace {

/// C-identifier-safe suffix for a version ("CF1", close) -> "cf1_close".
std::string version_suffix(const std::string& config_name,
                           platform::BindingPolicy binding) {
  std::string s = config_name;
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s + "_" + platform::to_string(binding);
}

/// Builds the wrapper function by synthesizing C text and parsing it —
/// the same thing MANET does when it instantiates a code template.
std::unique_ptr<ir::FunctionDecl> build_wrapper(const ir::FunctionDecl& kernel,
                                                const std::string& wrapper_name,
                                                const std::string& version_var,
                                                const std::vector<VersionInfo>& versions) {
  std::ostringstream src;
  std::string signature = ir::print_signature(kernel);
  // Rename in the signature text: the name is followed by '('.
  signature = replace_all(signature, kernel.name + "(", wrapper_name + "(");
  src << signature << "\n{\n";

  std::string args;
  for (std::size_t i = 0; i < kernel.params.size(); ++i) {
    if (i > 0) args += ", ";
    args += kernel.params[i].name;
  }

  for (std::size_t i = 0; i < versions.size(); ++i) {
    src << (i == 0 ? "  if (" : "  else if (") << version_var
        << " == " << versions[i].id << ")\n";
    src << "    " << versions[i].function_name << "(" << args << ");\n";
  }
  src << "  else\n    " << kernel.name << "(" << args << ");\n";
  src << "}\n";

  ir::TranslationUnit parsed = ir::parse(src.str());
  SOCRATES_ENSURE(parsed.items.size() == 1 &&
                  parsed.items.front()->kind == ir::TopLevelKind::kFunction);
  return std::unique_ptr<ir::FunctionDecl>(
      static_cast<ir::FunctionDecl*>(parsed.items.front().release()));
}

}  // namespace

std::string version_variable(const std::string& kernel_name) {
  return "__margot_version_" + kernel_name;
}

std::string threads_variable(const std::string& kernel_name) {
  return "__margot_num_threads_" + kernel_name;
}

std::vector<MultiversionedKernel> apply_multiversioning(
    Weaver& weaver, const std::vector<platform::CloneSpec>& clones) {
  SOCRATES_REQUIRE(!clones.empty());

  const auto kernels = weaver.select_functions_with_prefix("kernel_");
  SOCRATES_REQUIRE_MSG(!kernels.empty(), "no kernel_* function to multiversion");

  std::vector<MultiversionedKernel> result;

  for (ir::FunctionDecl* kernel : kernels) {
    MultiversionedKernel mk;
    mk.kernel_name = weaver.att_name(*kernel);
    mk.wrapper_name = mk.kernel_name + "_wrapper";
    mk.version_var = version_variable(mk.kernel_name);
    mk.threads_var = threads_variable(mk.kernel_name);

    // Per-kernel control variables: a multi-phase application tunes
    // each kernel independently.
    {
      ir::VarDecl version_var;
      version_var.type_text = "int";
      version_var.name = mk.version_var;
      version_var.init = ir::parse_expression("0");
      weaver.act_add_global(std::move(version_var));

      ir::VarDecl threads_var;
      threads_var.type_text = "int";
      threads_var.name = mk.threads_var;
      threads_var.init = ir::parse_expression("1");
      weaver.act_add_global(std::move(threads_var));
    }

    // Inspect the kernel the way the LARA aspect does before cloning:
    // full signature, loop structure, OpenMP pragma information.
    weaver.att_return_type(*kernel);
    const std::size_t n_params = weaver.att_param_count(*kernel);
    for (std::size_t i = 0; i < n_params; ++i) weaver.att_param(*kernel, i);
    for (const ir::Stmt* loop : weaver.select_loops(*kernel))
      weaver.att_loop_depth(*loop);
    for (const ir::PragmaStmt* p : weaver.select_omp_pragmas(*kernel))
      weaver.att_omp_info(*p);

    int version_id = 0;
    for (const auto& [named, binding] : clones) {
      const std::string clone_name =
          mk.kernel_name + "_" + version_suffix(named.name, binding);

      ir::FunctionDecl* clone = weaver.act_clone_function(*kernel, clone_name);

      // Compiler options for this clone (Figure 2b of the paper).
      weaver.act_insert_pragma_before(*clone, ir::Pragma{"GCC push_options"});
      weaver.act_insert_pragma_before(
          *clone, ir::gcc_optimize_pragma(named.config.pragma_options()));
      weaver.act_insert_pragma_after(*clone, ir::Pragma{"GCC pop_options"});

      // Parallelization knobs: every OpenMP pragma of the clone gets
      // the static binding policy and the dynamic thread count.
      for (ir::PragmaStmt* pragma : weaver.select_omp_pragmas(*clone)) {
        ir::OmpPragma info = weaver.att_omp_info(*pragma);
        info.set_clause("num_threads", mk.threads_var);
        info.set_clause("proc_bind", std::string(platform::to_string(binding)));
        weaver.act_set_pragma(*pragma, info.render());
      }

      mk.versions.push_back(
          VersionInfo{version_id, clone_name, named.name, named.config, binding});
      ++version_id;
    }

    // Dispatch wrapper (Figure 2b) appended at the end of the unit.
    weaver.act_add_function(
        build_wrapper(*kernel, mk.wrapper_name, mk.version_var, mk.versions));

    // Retarget every original call site, skipping the generated code.
    for (ir::FunctionDecl* fn : weaver.select_functions()) {
      const std::string name = weaver.att_name(*fn);
      if (name == mk.wrapper_name) continue;
      if (starts_with(name, mk.kernel_name)) continue;  // original + clones
      for (ir::CallExpr* call : weaver.select_calls(*fn, mk.kernel_name))
        weaver.act_retarget_call(*call, mk.wrapper_name);
    }

    result.push_back(std::move(mk));
  }
  return result;
}

void apply_autotuner(Weaver& weaver, const std::vector<MultiversionedKernel>& kernels) {
  SOCRATES_REQUIRE(!kernels.empty());

  weaver.act_add_include("\"margot.h\"");

  ir::FunctionDecl* main_fn = weaver.unit().find_function("main");
  SOCRATES_REQUIRE_MSG(main_fn != nullptr && main_fn->body != nullptr,
                       "Autotuner strategy requires a main function");
  weaver.act_insert_at_begin(*main_fn, ir::parse_statement("margot_init();"));

  // Surround every wrapper call with the mARGOt API (Figure 2c).
  for (const auto& mk : kernels) {
    const std::string update_stmt =
        "margot_update(&" + mk.version_var + ", &" + mk.threads_var + ");";
    for (ir::FunctionDecl* fn : weaver.select_functions()) {
      const std::string name = weaver.att_name(*fn);
      if (name == mk.wrapper_name || starts_with(name, mk.kernel_name)) continue;
      weaver.act_insert_around_calls(
          *fn, mk.wrapper_name,
          {update_stmt, "margot_start_monitors();"},
          {"margot_stop_monitors();"});
    }
  }
}

}  // namespace socrates::weaver
