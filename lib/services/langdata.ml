(* Embedded language resources for the simulated services: stopword lists
   and reference letter frequencies for language identification, content
   vocabularies for the synthetic corpus generator, and small bilingual
   lexicons for the dictionary translator. *)

type language = En | Fr | De | Es

let all_languages = [ En; Fr; De; Es ]

let code = function En -> "en" | Fr -> "fr" | De -> "de" | Es -> "es"

let of_code = function
  | "en" -> Some En
  | "fr" -> Some Fr
  | "de" -> Some De
  | "es" -> Some Es
  | _ -> None

let stopwords = function
  | En ->
    [ "the"; "of"; "and"; "a"; "to"; "in"; "is"; "it"; "you"; "that"; "he";
      "was"; "for"; "on"; "are"; "as"; "with"; "his"; "they"; "at"; "be";
      "this"; "have"; "from"; "or"; "one"; "had"; "by"; "word"; "but"; "not";
      "what"; "all"; "were"; "we"; "when"; "your"; "can"; "said"; "there" ]
  | Fr ->
    [ "le"; "la"; "les"; "de"; "des"; "du"; "et"; "un"; "une"; "est"; "en";
      "que"; "qui"; "dans"; "pour"; "pas"; "sur"; "avec"; "son"; "ne"; "se";
      "ce"; "il"; "elle"; "au"; "aux"; "par"; "plus"; "mais"; "ou"; "leur";
      "nous"; "vous"; "sont"; "cette"; "comme"; "tout"; "être"; "fait" ]
  | De ->
    [ "der"; "die"; "das"; "und"; "in"; "den"; "von"; "zu"; "mit"; "sich";
      "des"; "auf"; "für"; "ist"; "im"; "dem"; "nicht"; "ein"; "eine"; "als";
      "auch"; "es"; "an"; "werden"; "aus"; "er"; "hat"; "dass"; "sie"; "nach";
      "wird"; "bei"; "einer"; "um"; "am"; "sind"; "noch"; "wie"; "einem" ]
  | Es ->
    [ "el"; "la"; "de"; "que"; "y"; "a"; "en"; "un"; "ser"; "se"; "no";
      "haber"; "por"; "con"; "su"; "para"; "como"; "estar"; "tener"; "le";
      "lo"; "todo"; "pero"; "más"; "hacer"; "o"; "poder"; "decir"; "este";
      "ir"; "otro"; "ese"; "si"; "me"; "ya"; "ver"; "porque"; "dar"; "cuando" ]

(* Reference letter frequencies (%) — standard corpus statistics, coarse. *)
let letter_profile = function
  | En ->
    [| 8.2; 1.5; 2.8; 4.3; 12.7; 2.2; 2.0; 6.1; 7.0; 0.2; 0.8; 4.0; 2.4; 6.7;
       7.5; 1.9; 0.1; 6.0; 6.3; 9.1; 2.8; 1.0; 2.4; 0.2; 2.0; 0.1 |]
  | Fr ->
    [| 7.6; 0.9; 3.3; 3.7; 14.7; 1.1; 0.9; 0.7; 7.5; 0.6; 0.1; 5.5; 3.0; 7.1;
       5.8; 2.5; 1.4; 6.7; 7.9; 7.2; 6.3; 1.8; 0.1; 0.4; 0.3; 0.1 |]
  | De ->
    [| 6.5; 1.9; 3.1; 5.1; 16.4; 1.7; 3.0; 4.8; 6.5; 0.3; 1.4; 3.4; 2.5; 9.8;
       2.6; 0.7; 0.0; 7.0; 7.3; 6.2; 4.2; 0.8; 1.9; 0.0; 0.0; 1.1 |]
  | Es ->
    [| 12.5; 1.4; 4.7; 5.9; 13.7; 0.7; 1.0; 0.7; 6.3; 0.4; 0.0; 5.0; 3.2; 6.7;
       8.7; 2.5; 0.9; 6.9; 8.0; 4.6; 3.9; 0.9; 0.0; 0.2; 0.9; 0.5 |]

(* Content vocabulary used by the synthetic corpus generator. *)
let content_words = function
  | En ->
    [ "government"; "market"; "report"; "analysis"; "security"; "system";
      "president"; "economy"; "company"; "research"; "minister"; "agreement";
      "conference"; "network"; "technology"; "election"; "strategy"; "data";
      "attack"; "crisis"; "policy"; "energy"; "defence"; "program"; "media" ]
  | Fr ->
    [ "gouvernement"; "marché"; "rapport"; "analyse"; "sécurité"; "système";
      "président"; "économie"; "entreprise"; "recherche"; "ministre";
      "accord"; "conférence"; "réseau"; "technologie"; "élection";
      "stratégie"; "données"; "attaque"; "crise"; "politique"; "énergie";
      "défense"; "programme"; "médias" ]
  | De ->
    [ "regierung"; "markt"; "bericht"; "analyse"; "sicherheit"; "system";
      "präsident"; "wirtschaft"; "unternehmen"; "forschung"; "minister";
      "abkommen"; "konferenz"; "netzwerk"; "technologie"; "wahl";
      "strategie"; "daten"; "angriff"; "krise"; "politik"; "energie";
      "verteidigung"; "programm"; "medien" ]
  | Es ->
    [ "gobierno"; "mercado"; "informe"; "análisis"; "seguridad"; "sistema";
      "presidente"; "economía"; "empresa"; "investigación"; "ministro";
      "acuerdo"; "conferencia"; "red"; "tecnología"; "elección";
      "estrategia"; "datos"; "ataque"; "crisis"; "política"; "energía";
      "defensa"; "programa"; "medios" ]

(* Dictionary translations into English (the translator's pivot).  The
   pairs cover the content vocabulary and the most frequent stopwords, so
   that translated synthetic text is recognizably English. *)
let to_english = function
  | En -> []
  | Fr ->
    [ ("le", "the"); ("la", "the"); ("les", "the"); ("de", "of"); ("des", "of");
      ("du", "of"); ("et", "and"); ("un", "a"); ("une", "a"); ("est", "is");
      ("en", "in"); ("que", "that"); ("qui", "who"); ("dans", "in");
      ("pour", "for"); ("pas", "not"); ("sur", "on"); ("avec", "with");
      ("gouvernement", "government"); ("marché", "market"); ("rapport", "report");
      ("analyse", "analysis"); ("sécurité", "security"); ("système", "system");
      ("président", "president"); ("économie", "economy");
      ("entreprise", "company"); ("recherche", "research");
      ("ministre", "minister"); ("accord", "agreement");
      ("conférence", "conference"); ("réseau", "network");
      ("technologie", "technology"); ("élection", "election");
      ("stratégie", "strategy"); ("données", "data"); ("attaque", "attack");
      ("crise", "crisis"); ("politique", "policy"); ("énergie", "energy");
      ("défense", "defence"); ("programme", "program"); ("médias", "media") ]
  | De ->
    [ ("der", "the"); ("die", "the"); ("das", "the"); ("und", "and");
      ("in", "in"); ("von", "of"); ("zu", "to"); ("mit", "with");
      ("ist", "is"); ("nicht", "not"); ("ein", "a"); ("eine", "a");
      ("regierung", "government"); ("markt", "market"); ("bericht", "report");
      ("analyse", "analysis"); ("sicherheit", "security"); ("system", "system");
      ("präsident", "president"); ("wirtschaft", "economy");
      ("unternehmen", "company"); ("forschung", "research");
      ("minister", "minister"); ("abkommen", "agreement");
      ("konferenz", "conference"); ("netzwerk", "network");
      ("technologie", "technology"); ("wahl", "election");
      ("strategie", "strategy"); ("daten", "data"); ("angriff", "attack");
      ("krise", "crisis"); ("politik", "policy"); ("energie", "energy");
      ("verteidigung", "defence"); ("programm", "program"); ("medien", "media") ]
  | Es ->
    [ ("el", "the"); ("la", "the"); ("de", "of"); ("que", "that"); ("y", "and");
      ("a", "to"); ("en", "in"); ("un", "a"); ("no", "not"); ("por", "by");
      ("con", "with"); ("su", "its"); ("para", "for");
      ("gobierno", "government"); ("mercado", "market"); ("informe", "report");
      ("análisis", "analysis"); ("seguridad", "security"); ("sistema", "system");
      ("presidente", "president"); ("economía", "economy");
      ("empresa", "company"); ("investigación", "research");
      ("ministro", "minister"); ("acuerdo", "agreement");
      ("conferencia", "conference"); ("red", "network");
      ("tecnología", "technology"); ("elección", "election");
      ("estrategia", "strategy"); ("datos", "data"); ("ataque", "attack");
      ("crisis", "crisis"); ("política", "policy"); ("energía", "energy");
      ("defensa", "defence"); ("programa", "program"); ("medios", "media") ]

(* Gazetteer for the named-entity extractor. *)
let gazetteer =
  [ ("Paris", "location"); ("London", "location"); ("Berlin", "location");
    ("Madrid", "location"); ("Geneva", "location"); ("Brussels", "location");
    ("France", "location"); ("Germany", "location"); ("Spain", "location");
    ("Europe", "location"); ("Washington", "location"); ("Moscow", "location");
    ("UNESCO", "organization"); ("NATO", "organization"); ("EADS", "organization");
    ("Cassidian", "organization"); ("Airbus", "organization");
    ("Interpol", "organization"); ("Europol", "organization");
    ("WebLab", "organization"); ("Reuters", "organization");
    ("Merkel", "person"); ("Sarkozy", "person"); ("Obama", "person");
    ("Hollande", "person"); ("Zapatero", "person"); ("Cameron", "person") ]

(* Polarity lexicon for the sentiment service. *)
let sentiment_lexicon =
  [ ("good", 1); ("great", 2); ("excellent", 2); ("positive", 1); ("success", 2);
    ("successful", 2); ("agreement", 1); ("growth", 1); ("peace", 2);
    ("improve", 1); ("improved", 1); ("win", 1); ("strong", 1); ("progress", 1);
    ("bad", -1); ("poor", -1); ("terrible", -2); ("negative", -1);
    ("failure", -2); ("crisis", -2); ("attack", -2); ("war", -2); ("loss", -1);
    ("weak", -1); ("decline", -1); ("threat", -2); ("risk", -1); ("fear", -1) ]
