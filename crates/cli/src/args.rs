//! The command grammar: what a command line may contain ([`Command`],
//! one row per command in [`crate::COMMANDS`]) and the single pass over
//! argv ([`parse`]) that checks every token against it. Nothing else in
//! the crate looks at the raw argument list: a command receives a
//! [`Parsed`] and asks it for values by flag name, so no token goes
//! unexamined, and the synopsis block of the help text is rendered from
//! the same rows ([`Command::synopsis`]).

use crate::{CliError, COMMANDS};
use std::path::PathBuf;
use std::str::FromStr;

/// One `--flag`: its name and how the synopsis names its value (empty
/// for a switch, which takes none).
pub(crate) type Flag = (&'static str, &'static str);

type Run = fn(&Parsed) -> Result<String, CliError>;

/// One row of the command table.
pub(crate) struct Command {
    /// The verb, or verb and family where commands share a verb
    /// (`submit campaign`).
    pub(crate) name: &'static str,
    /// Names of the positional arguments, all mandatory.
    positionals: &'static [&'static str],
    /// Flags the command cannot run without.
    required: &'static [Flag],
    /// The optional flags, in groups so that commands can share them.
    optional: &'static [&'static [Flag]],
    pub(crate) run: Run,
}

pub(crate) const fn command(
    name: &'static str,
    positionals: &'static [&'static str],
    required: &'static [Flag],
    optional: &'static [&'static [Flag]],
    run: Run,
) -> Command {
    Command {
        name,
        positionals,
        required,
        optional,
        run,
    }
}

impl Command {
    pub(crate) fn flags(&self) -> impl Iterator<Item = &'static Flag> {
        self.required
            .iter()
            .chain(self.optional.iter().copied().flatten())
    }

    fn flag(&self, name: &str) -> Option<&'static Flag> {
        self.flags().find(|flag| flag.0 == name)
    }

    /// The command's line of the help text.
    pub(crate) fn synopsis(&self) -> String {
        let mut line = format!("iris {}", self.name);
        for positional in self.positionals {
            line += &format!(" <{positional}>");
        }
        for (name, metavar) in self.required {
            line += &format!(" {name} {metavar}");
        }
        for (name, metavar) in self.optional.iter().copied().flatten() {
            line += &format!(" [{}]", format!("{name} {metavar}").trim_end());
        }
        line
    }

    /// A usage error about this command: the problem, then the one
    /// synopsis that applies.
    pub(crate) fn usage_error(&self, problem: impl std::fmt::Display) -> CliError {
        CliError::Usage(format!("{problem}\n\nusage: {}", self.synopsis()))
    }
}

/// A command line that passed [`parse`]: every positional and required
/// flag present, each flag the command's own and given at most once.
pub(crate) struct Parsed {
    pub(crate) command: &'static Command,
    positionals: Vec<String>,
    /// Flag names and values in argv order; a switch has an empty value.
    flags: Vec<(&'static str, String)>,
}

impl Parsed {
    pub(crate) fn positional(&self, index: usize) -> &str {
        &self.positionals[index]
    }

    /// The flag's value, if it was given (empty for a switch).
    ///
    /// # Panics
    /// When the command's row does not list `flag`: a getter that can
    /// never see its flag is a bug in this crate.
    pub(crate) fn value(&self, flag: &str) -> Option<&str> {
        let name = self.command.name;
        assert!(
            self.command.flag(flag).is_some(),
            "`iris {name}` has no {flag}"
        );
        let given = self.flags.iter().find(|(name, _)| *name == flag);
        given.map(|(_, value)| value.as_str())
    }

    pub(crate) fn has(&self, flag: &str) -> bool {
        self.value(flag).is_some()
    }

    pub(crate) fn path(&self, flag: &str) -> Option<PathBuf> {
        self.value(flag).map(PathBuf::from)
    }

    /// The value of a required flag.
    pub(crate) fn required(&self, flag: &str) -> &str {
        self.value(flag).expect("parse checked the required flags")
    }

    /// The flag's value converted to `T`, if it was given.
    pub(crate) fn parsed<T: FromStr>(&self, flag: &str) -> Result<Option<T>, CliError> {
        let Some(v) = self.value(flag) else {
            return Ok(None);
        };
        let bad = format!("bad value for {flag}: {v}");
        v.parse()
            .map(Some)
            .map_err(|_| self.command.usage_error(bad))
    }

    pub(crate) fn num<T: FromStr>(&self, flag: &str, default: T) -> Result<T, CliError> {
        Ok(self.parsed(flag)?.unwrap_or(default))
    }

    /// [`Parsed::num`] for a count that may not be zero.
    pub(crate) fn at_least_one<T>(&self, flag: &str, default: T) -> Result<T, CliError>
    where
        T: FromStr + Default + PartialEq,
    {
        let n = self.num(flag, default)?;
        if n == T::default() {
            let problem = format!("{flag} must be at least 1");
            return Err(self.command.usage_error(problem));
        }
        Ok(n)
    }
}

/// The command `args` names, and the tokens after its name.
fn lookup(args: &[String]) -> Result<(&'static Command, &[String]), CliError> {
    let mut words: Vec<&str> = args.iter().map(String::as_str).collect();
    let Some(verb) = words.first_mut() else {
        return Err(CliError::Usage(crate::usage()));
    };
    if matches!(*verb, "--help" | "-h") {
        *verb = "help";
    }
    let verb = *verb;
    let found = COMMANDS.iter().find_map(|command| {
        let name: Vec<&str> = command.name.split(' ').collect();
        let named = words.starts_with(&name);
        named.then(|| (command, &args[name.len()..]))
    });
    found.ok_or_else(|| {
        // The commands that share the verb (`submit`), when what
        // follows it names none of them.
        let family = COMMANDS
            .iter()
            .filter(|c| c.name.split(' ').next() == Some(verb));
        let (names, lines): (Vec<_>, Vec<_>) = family
            .filter_map(|c| Some((c.name.split(' ').nth(1)?, c.synopsis())))
            .unzip();
        CliError::Usage(if names.is_empty() {
            format!("unknown command '{verb}'\n\n{}", crate::usage())
        } else {
            let (given, names) = (words.get(1).unwrap_or(&""), names.join(" | "));
            let lines = lines.join("\n       ");
            format!("unknown {verb} family '{given}' ({names})\n\nusage: {lines}")
        })
    })
}

/// The one pass over argv (without the program name): every token is a
/// command name, a positional, a flag of that command, or a flag's
/// value — or the parse fails naming it. An unknown flag, a flag of
/// another command, a value flag without its value (at the end, or
/// followed by another flag), a repeated flag, and a stray or missing
/// positional or required flag are all [`CliError::Usage`], raised
/// before the command runs.
pub(crate) fn parse(args: &[String]) -> Result<Parsed, CliError> {
    let (command, rest) = lookup(args)?;
    let fail = |problem: String| Err(command.usage_error(problem));
    let (mut positionals, mut flags) = (Vec::new(), Vec::<(&str, String)>::new());
    let mut tokens = rest.iter();
    while let Some(token) = tokens.next() {
        if !token.starts_with("--") {
            if positionals.len() == command.positionals.len() {
                return fail(format!("unexpected argument '{token}'"));
            }
            positionals.push(token.clone());
            continue;
        }
        let Some(&(name, metavar)) = command.flag(token) else {
            let owners = COMMANDS.iter().filter(|c| c.flag(token).is_some());
            let owners = owners.map(|c| c.name).collect::<Vec<_>>().join(", ");
            return fail(match owners.as_str() {
                "" => format!("unknown flag '{token}'"),
                _ => format!(
                    "'{token}' is not a flag of `iris {}` (it belongs to: {owners})",
                    command.name
                ),
            });
        };
        if flags.iter().any(|(given, _)| *given == name) {
            return fail(format!("flag '{token}' given more than once"));
        }
        let mut value = String::new();
        if !metavar.is_empty() {
            match tokens.next() {
                Some(given) if !given.starts_with("--") => value.clone_from(given),
                _ => return fail(format!("flag '{token}' needs a value ({metavar})")),
            }
        }
        flags.push((name, value));
    }
    let parsed = Parsed {
        command,
        positionals,
        flags,
    };
    if let Some(missing) = command.positionals.get(parsed.positionals.len()) {
        return fail(format!("missing <{missing}>"));
    }
    let missing = |(name, _): &&Flag| !parsed.has(name);
    if let Some((name, metavar)) = command.required.iter().find(missing) {
        return fail(format!("`iris {}` requires {name} {metavar}", command.name));
    }
    Ok(parsed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run, USAGE};
    use std::path::Path;

    /// The flags whose value is a file the command writes.
    const ARTIFACTS: [&str; 2] = ["--json", "--corpus"];

    fn artifact(command: &Command) -> PathBuf {
        let name = command.name.replace(' ', "-");
        std::env::temp_dir().join(format!("iris-cli-hostile-{name}-{}", std::process::id()))
    }

    /// A well-formed line for `command` — its name, every positional,
    /// every required flag and every artifact flag it has — leaving
    /// out `without`, for the cases that place that flag themselves.
    fn well_formed(command: &Command, without: &str) -> Vec<String> {
        let mut argv: Vec<String> = command.name.split(' ').map(str::to_owned).collect();
        argv.extend(command.positionals.iter().map(|_| "os_boot".to_owned()));
        for &(name, _) in command.flags().filter(|flag| flag.0 != without) {
            if ARTIFACTS.contains(&name) {
                argv.extend([name.to_owned(), artifact(command).display().to_string()]);
            } else if command.required.iter().any(|required| required.0 == name) {
                argv.extend([name.to_owned(), "127.0.0.1:1".to_owned()]);
            }
        }
        argv
    }

    fn with_value(&(name, metavar): &Flag) -> Vec<&'static str> {
        if metavar.is_empty() {
            vec![name]
        } else {
            vec![name, "1"]
        }
    }

    /// `argv` must be refused by the parse pass — so nothing ran — with
    /// a usage error that names `token` and prints the one synopsis.
    fn refused(command: &Command, mut argv: Vec<String>, tail: &[&str], token: &str) {
        argv.extend(tail.iter().map(|&t| t.to_owned()));
        let Err(CliError::Usage(message)) = parse(&argv) else {
            panic!("{argv:?} must be a usage error");
        };
        assert!(message.contains(token), "{argv:?}: {message}");
        assert!(
            message.ends_with(&command.synopsis()),
            "{argv:?}: {message}"
        );
        assert!(
            matches!(run(&argv), Err(CliError::Usage(m)) if m == message),
            "{argv:?}: `run` is the same pass"
        );
        assert!(!artifact(command).exists(), "{argv:?} wrote its artifact");
        for stray in tail {
            assert!(!Path::new(stray).exists(), "{argv:?} wrote a file {stray}");
        }
    }

    #[test]
    fn hostile_argv_is_a_usage_error_naming_the_token_for_every_command() {
        for command in COMMANDS {
            let line = || well_formed(command, "");
            refused(command, line(), &["--no-such-flag"], "--no-such-flag");
            refused(command, line(), &["surplus"], "surplus");
            let foreign = COMMANDS
                .iter()
                .flat_map(Command::flags)
                .find(|flag| command.flag(flag.0).is_none())
                .expect("no command has every flag");
            refused(command, line(), &with_value(foreign), foreign.0);
            if let Some(first) = command.flags().next() {
                let twice = [with_value(first), with_value(first)].concat();
                refused(command, well_formed(command, first.0), &twice, first.0);
            }
            let next = command.flags().last().map_or("--x", |flag| flag.0);
            for &(name, _) in command.flags().filter(|flag| !flag.1.is_empty()) {
                let line = || well_formed(command, name);
                refused(command, line(), &[name], name);
                refused(command, line(), &[name, next], name);
            }
        }
    }

    #[test]
    fn a_missing_positional_or_required_flag_is_named() {
        for command in COMMANDS {
            let words = command.name.split(' ').count();
            if let Some(first) = command.positionals.first() {
                let mut argv = well_formed(command, "");
                argv.remove(words);
                refused(command, argv, &[], &format!("<{first}>"));
            }
            for (name, _) in command.required {
                refused(command, well_formed(command, name), &[], name);
            }
        }
    }

    /// The `iris …` invocations of a shell document: what follows one of
    /// the ways the docs spell the binary, up to the first shell
    /// metacharacter. Lines with `$`-expansions in the arguments are
    /// skipped. The flag is true for a line that captures the exit
    /// status (`|| rc=$?`): those document a rejection.
    fn documented(doc: &str) -> Vec<(Vec<String>, bool)> {
        let joined = doc.replace("\\\n", " ");
        let mut found = Vec::new();
        for line in joined.lines() {
            let Some(rest) = ["--bin iris -- ", "$BIN ", "target/release/iris "]
                .iter()
                .find_map(|spelling| line.split_once(spelling).map(|(_, rest)| rest))
            else {
                continue;
            };
            let end = rest.find(|c| "|&;<>#()".contains(c)).unwrap_or(rest.len());
            let mut invocation = rest[..end].trim_end();
            if rest[end..].starts_with('>') {
                // `2>`: the descriptor number is not an argument.
                invocation = invocation.strip_suffix(" 2").unwrap_or(invocation);
            }
            if !invocation.contains('$') {
                let argv = invocation.split_whitespace().map(str::to_owned).collect();
                found.push((argv, line.contains("|| rc=$?")));
            }
        }
        found
    }

    #[test]
    fn every_documented_invocation_parses() {
        let docs = [
            include_str!("../../../.github/workflows/ci.yml"),
            include_str!("../../../.claude/skills/verify/SKILL.md"),
        ];
        let invocations: Vec<_> = docs.iter().flat_map(|doc| documented(doc)).collect();
        assert!(
            invocations.len() >= 40 && invocations.iter().any(|(_, rejected)| *rejected),
            "the extractor lost the documents: {} invocations",
            invocations.len()
        );
        for (argv, rejected) in invocations {
            match parse(&argv) {
                Ok(_) => assert!(!rejected, "documented as a usage error: {argv:?}"),
                Err(CliError::Usage(message)) => assert!(rejected, "{argv:?}: {message}"),
                Err(other) => panic!("{argv:?}: {other}"),
            }
        }
    }

    #[test]
    fn the_help_text_and_the_table_agree() {
        let usage = crate::usage();
        for command in COMMANDS {
            let line = command.synopsis();
            assert!(usage.contains(&format!("    {line}\n")), "{line}");
            assert!(line.starts_with(&format!("iris {}", command.name)));
            for (name, _) in command.flags() {
                assert!(line.contains(name), "{line} lacks {name}");
            }
        }
        // Every `--flag` the prose mentions is a flag some command has.
        let mut mentioned = 0;
        for (at, _) in USAGE.match_indices("--") {
            let word: String = USAGE[at..]
                .chars()
                .take_while(|c| c.is_ascii_lowercase() || *c == '-')
                .collect();
            if USAGE[..at].ends_with('-') || word.len() == 2 {
                continue;
            }
            mentioned += 1;
            assert!(
                COMMANDS.iter().any(|c| c.flag(&word).is_some()),
                "the help text mentions {word}, which no command has"
            );
        }
        assert!(mentioned >= 30, "{mentioned} flag words found in the prose");
    }
}
